package bench

// The PR8 dedup figure: the checkpoint kernel (full application state
// rewritten every step, ~10% of it actually changed) run with the
// content-addressed flush layer off and on. Reported per scale: the
// logical bytes the application persisted, the physical bytes the dedup
// flush actually moved (the off run moves the full logical volume), and
// each run's virtual end-to-end time. Deterministic: same options, same
// bytes.

import (
	"univistor/internal/core"
	"univistor/internal/workloads"
)

// figDedupChangeRate is the fraction of each rank's segments mutated
// between consecutive checkpoints.
const figDedupChangeRate = 0.10

// FigDedup sweeps the process count over the checkpoint kernel, dedup off
// vs on (block size = segment size, so each segment is one CAS block).
func FigDedup(o Options) *Result {
	res := &Result{
		ID:     "figdedup",
		Title:  "Content-addressed flush — logical vs physical bytes, end-to-end time",
		Metric: "GiB | s",
	}
	steps := o.TimeSteps10
	if steps <= 0 {
		steps = 10
	}
	segs := max(1, int(o.BytesPerRank/o.SegmentBytes))
	names := []string{"logical GiB", "physical GiB dedup", "end-to-end s off", "end-to-end s dedup"}
	sweep(res, o, names, o.Scales, func(procs int) []float64 {
		var logical, physical int64
		var ends [2]float64 // end-to-end seconds, dedup off and on
		for i, dedup := range []bool{false, true} {
			v := uvVariant("", tiersDRAM, func(c *core.Config) {
				if dedup {
					c.Dedup = true
					c.DedupBlockBytes = o.SegmentBytes
				}
			})
			st := v.stack(procs, o)
			// No compute phase: back-to-back checkpoints keep the flush
			// pipeline on the critical path, so the end-to-end series
			// shows the dedup speedup instead of idle compute time.
			cfg := workloads.CheckpointConfig{
				SegmentsPerRank: segs,
				SegmentBytes:    o.SegmentBytes,
				TimeSteps:       steps,
				ChangeRate:      figDedupChangeRate,
				Seed:            4242,
			}
			ck, err := st.Checkpoint(procs, o.RanksPerNode, cfg)
			st.finish(o, err)
			ends[i] = float64(ck.End)
			if dedup {
				s := st.UV.Sys.Stats()
				logical, physical = s.BytesFlushed, s.BytesFlushedPhysical
			}
		}
		return []float64{float64(logical) / GiB, float64(physical) / GiB, ends[0], ends[1]}
	})
	return res
}
