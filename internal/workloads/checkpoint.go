package workloads

// The checkpoint kernel for the content-addressed flush layer: every time
// step the application writes a *full* checkpoint of its state, but only a
// ChangeRate fraction of each rank's segments actually changed since the
// previous step. Segment content is modeled by a version counter evolved
// with a seeded per-rank RNG; the write carries tag(rank, segment, version)
// so the dedup layer can recognize the unchanged majority across step
// files and move only the delta. A retention window retires old step
// files, killing their block references — the garbage the ref-counted GC
// exists to collect.

import (
	"fmt"
	"math/rand"
	"sort"

	"univistor/internal/castore"
	"univistor/internal/mpi"
	"univistor/internal/mpiio"
	"univistor/internal/sim"
)

// CheckpointConfig shapes the checkpoint kernel.
type CheckpointConfig struct {
	// SegmentsPerRank and SegmentBytes shape each rank's state: a
	// contiguous region of SegmentsPerRank segments of SegmentBytes each.
	SegmentsPerRank int
	SegmentBytes    int64
	// TimeSteps is the checkpoint count.
	TimeSteps int
	// ChangeRate is the fraction of each rank's segments mutated between
	// consecutive steps (step 0 writes everything fresh).
	ChangeRate float64
	// ComputeSeconds separates checkpoints.
	ComputeSeconds float64
	// Seed drives the mutation pattern. Each rank derives its own RNG from
	// it, so the pattern is deterministic and independent of scheduling.
	Seed int64
	// Retention keeps only the newest Retention step files: once step s is
	// written, the step s-Retention file is retired — each rank deletes
	// its own region, then the file closes collectively. 0 keeps all.
	Retention int
	// FilePrefix names the per-step files: <prefix>-<step>.h5. Defaults
	// to "ckpt".
	FilePrefix string
}

func (c *CheckpointConfig) defaults() {
	if c.FilePrefix == "" {
		c.FilePrefix = "ckpt"
	}
}

// StepFile returns the shared file name of one time step.
func (c CheckpointConfig) StepFile(step int) string {
	return fmt.Sprintf("%s-%03d.h5", c.FilePrefix, step)
}

// BytesPerRankStep returns the data one rank writes per time step.
func (c CheckpointConfig) BytesPerRankStep() int64 {
	return int64(c.SegmentsPerRank) * c.SegmentBytes
}

// CheckpointStats reports one rank's work.
type CheckpointStats struct {
	StepIOTime []sim.Time // open+write+flush(+retire) per step
	TotalIO    sim.Time
	// SegmentsChanged counts segment mutations across all steps, the first
	// full checkpoint included — the rank's logical delta.
	SegmentsChanged int64
	// FilesRetired counts step files this rank helped delete.
	FilesRetired int
}

// segTag derives the 64-bit content identity of one segment version: equal
// (rank, segment, version) triples — and only those — stand for equal
// bytes, so an unchanged segment rewritten in the next step's file dedups
// against its previous flushed copy.
func segTag(rank, seg int, version uint64) uint64 {
	return castore.NewDigest().
		Word(uint64(rank)).
		Word(uint64(seg)).
		Word(version).
		Sum()
}

// RunCheckpoint executes the kernel on one rank: per step, evolve the
// rank's segment versions, collectively open the step file, write every
// segment tagged with its version, flush (so dedup happens per step, not
// once at the end), and retire the file that fell out of the retention
// window. All ranks of the app must call it.
func RunCheckpoint(r *mpi.Rank, env *mpiio.Env, cfg CheckpointConfig) (CheckpointStats, error) {
	var st CheckpointStats
	if cfg.TimeSteps <= 0 || cfg.SegmentsPerRank <= 0 || cfg.SegmentBytes <= 0 {
		return st, fmt.Errorf("checkpoint: TimeSteps, SegmentsPerRank, SegmentBytes must be positive")
	}
	cfg.defaults()
	rng := rand.New(rand.NewSource(sim.StreamSeed(cfg.Seed, r.Rank())))
	versions := make([]uint64, cfg.SegmentsPerRank)
	base := int64(r.Rank()) * cfg.BytesPerRankStep()
	open := map[int]mpiio.File{}
	var ioErr error

	for step := 0; step < cfg.TimeSteps && ioErr == nil; step++ {
		// Evolve the state: step 0 is the first full checkpoint (every
		// segment fresh), later steps mutate ~ChangeRate of the segments.
		for s := range versions {
			if step == 0 {
				versions[s] = 1
				st.SegmentsChanged++
			} else if rng.Float64() < cfg.ChangeRate {
				versions[s]++
				st.SegmentsChanged++
			}
		}

		t0 := r.Now()
		f, err := env.Open(r, cfg.StepFile(step), mpi.WriteOnly)
		if err != nil {
			return st, fmt.Errorf("checkpoint step %d open: %w", step, err)
		}
		open[step] = f
		for s := 0; s < cfg.SegmentsPerRank; s++ {
			off := base + int64(s)*cfg.SegmentBytes
			tag := segTag(r.Rank(), s, versions[s])
			if err := mpiio.WriteTagged(f, off, cfg.SegmentBytes, nil, tag); err != nil {
				ioErr = fmt.Errorf("checkpoint step %d write: %w", step, err)
				break
			}
		}
		// Flush the full checkpoint now. Collective, so it runs even after
		// a write error — a rank that bails early would strand the healthy
		// ranks in the barrier.
		if fl, ok := f.(mpiio.Flusher); ok {
			if err := fl.Flush(); err != nil && ioErr == nil {
				ioErr = fmt.Errorf("checkpoint step %d flush: %w", step, err)
			}
		}

		// Retire the step that fell out of the retention window: drop this
		// rank's region (the flushed blocks lose their references and the
		// GC gets work), then close the stale handle.
		if old := step - cfg.Retention; cfg.Retention > 0 && old >= 0 {
			of := open[old]
			if d, ok := of.(mpiio.Deleter); ok {
				if _, err := d.Delete(base, cfg.BytesPerRankStep()); err != nil && ioErr == nil {
					ioErr = fmt.Errorf("checkpoint retire step %d: %w", old, err)
				}
			}
			if err := of.Close(); err != nil && ioErr == nil {
				ioErr = fmt.Errorf("checkpoint retire close step %d: %w", old, err)
			}
			delete(open, old)
			st.FilesRetired++
		}

		d := r.Now() - t0
		st.StepIOTime = append(st.StepIOTime, d)
		st.TotalIO += d
		if step < cfg.TimeSteps-1 && cfg.ComputeSeconds > 0 {
			r.Compute(cfg.ComputeSeconds)
		}
	}

	// Close the handles still inside the retention window (all of them
	// when Retention is 0), oldest first so every rank walks the same
	// collective order.
	steps := make([]int, 0, len(open))
	for s := range open {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	for _, s := range steps {
		if err := open[s].Close(); err != nil && ioErr == nil {
			ioErr = fmt.Errorf("checkpoint close step %d: %w", s, err)
		}
	}
	return st, ioErr
}
