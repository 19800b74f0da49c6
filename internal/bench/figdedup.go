package bench

// The PR8 dedup figure: the checkpoint kernel (full application state
// rewritten every step, ~10% of it actually changed) run with the
// content-addressed flush layer off and on. Reported per scale: the
// logical bytes the application persisted, the physical bytes the dedup
// flush actually moved (the off run moves the full logical volume), and
// each run's virtual end-to-end time. Deterministic: same options, same
// bytes.

import (
	"fmt"

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
	sLog := Series{Name: "logical GiB"}
	sPhys := Series{Name: "physical GiB dedup"}
	sOff := Series{Name: "end-to-end s off"}
	sOn := Series{Name: "end-to-end s dedup"}
	for _, procs := range o.Scales {
		var logical, physical int64
		var offSecs, onSecs float64
		for _, dedup := range []bool{false, true} {
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
			if err != nil {
				panic(fmt.Sprintf("bench: figdedup checkpoint: %v", err))
			}
			st.finish(o)
			s := st.UV.Sys.Stats()
			if dedup {
				logical = s.BytesFlushed
				physical = s.BytesFlushedPhysical
				onSecs = float64(ck.End)
			} else {
				offSecs = float64(ck.End)
			}
		}
		sLog.Points = append(sLog.Points, Point{Procs: procs, Value: float64(logical) / GiB})
		sPhys.Points = append(sPhys.Points, Point{Procs: procs, Value: float64(physical) / GiB})
		sOff.Points = append(sOff.Points, Point{Procs: procs, Value: offSecs})
		sOn.Points = append(sOn.Points, Point{Procs: procs, Value: onSecs})
		o.progress("figdedup procs=%d logical=%.2f GiB physical=%.2f GiB (%.0f%%) end %.0fs→%.0fs",
			procs, float64(logical)/GiB, float64(physical)/GiB,
			100*float64(physical)/float64(logical), offSecs, onSecs)
	}
	res.Series = append(res.Series, sLog, sPhys, sOff, sOn)
	return res
}
