// Package workloads implements the I/O kernels of the paper's evaluation:
// the HDF5-style micro-benchmark (each process writes/reads an independent
// contiguous block of a shared file), VPIC-IO (a plasma-physics
// checkpointing kernel: eight particle-property datasets per time step),
// and BD-CATS-IO (the matching analysis kernel that reads all properties
// of all particles).
package workloads

import (
	"fmt"

	"univistor/internal/hdf5lite"
	"univistor/internal/mpi"
	"univistor/internal/mpiio"
	"univistor/internal/sim"
)

// MicroConfig shapes the micro-benchmark.
type MicroConfig struct {
	// BytesPerRank is each process's contiguous block (256 MiB in §III-B).
	BytesPerRank int64
	// SegmentBytes is the size of each write/read call; the block is
	// issued in BytesPerRank/SegmentBytes calls.
	SegmentBytes int64
	// FileName is the shared file. Defaults to "micro.h5".
	FileName string
}

// MicroStats reports one rank's timings.
type MicroStats struct {
	OpenTime  sim.Time
	IOTime    sim.Time
	CloseTime sim.Time
}

// Total returns open+IO+close.
func (s MicroStats) Total() sim.Time { return s.OpenTime + s.IOTime + s.CloseTime }

func (c *MicroConfig) defaults() {
	if c.FileName == "" {
		c.FileName = "micro.h5"
	}
	if c.SegmentBytes <= 0 || c.SegmentBytes > c.BytesPerRank {
		c.SegmentBytes = c.BytesPerRank
	}
}

// MicroWrite runs the write micro-benchmark on one rank: open the shared
// file collectively, write the rank's block, close. All ranks must call it.
func MicroWrite(r *mpi.Rank, env *mpiio.Env, cfg MicroConfig) (MicroStats, error) {
	return micro(r, env, cfg, mpi.WriteOnly)
}

// MicroRead reads back each rank's own block of the shared file.
func MicroRead(r *mpi.Rank, env *mpiio.Env, cfg MicroConfig) (MicroStats, error) {
	return micro(r, env, cfg, mpi.ReadOnly)
}

// micro is one rank's pass of the micro-benchmark: open the shared file in
// mode, write or read the rank's block in SegmentBytes calls, close.
func micro(r *mpi.Rank, env *mpiio.Env, cfg MicroConfig, mode mpi.Mode) (MicroStats, error) {
	cfg.defaults()
	verb := "write"
	if mode == mpi.ReadOnly {
		verb = "read"
	}
	var st MicroStats
	t0 := r.Now()
	f, err := env.Open(r, cfg.FileName, mode)
	if err != nil {
		return st, fmt.Errorf("micro %s open: %w", verb, err)
	}
	st.OpenTime = r.Now() - t0

	t1 := r.Now()
	base := int64(r.Rank()) * cfg.BytesPerRank
	var ioErr error
	for off := int64(0); off < cfg.BytesPerRank; off += cfg.SegmentBytes {
		n := min(cfg.SegmentBytes, cfg.BytesPerRank-off)
		if mode == mpi.ReadOnly {
			_, err = f.ReadAt(base+off, n)
		} else {
			err = f.WriteAt(base+off, n, nil)
		}
		if err != nil {
			ioErr = fmt.Errorf("micro %s: %w", verb, err)
			break
		}
	}
	st.IOTime = r.Now() - t1

	// Close even after an I/O error (e.g. ErrDataLost under fault
	// injection): Close is collective, and a rank that bails without it
	// strands every healthy rank in the close barrier.
	t2 := r.Now()
	if err := f.Close(); err != nil && ioErr == nil {
		ioErr = fmt.Errorf("micro %s close: %w", verb, err)
	}
	st.CloseTime = r.Now() - t2
	return st, ioErr
}

// ---------------------------------------------------------------------------
// VPIC-IO.

// VPICConfig shapes the VPIC-IO kernel. The paper's instance: 8 M particles
// per process, eight 4-byte properties (32 B/particle, 256 MB/process/step),
// with a 60 s compute phase between checkpoints.
type VPICConfig struct {
	ParticlesPerRank int64
	Props            int
	BytesPerProp     int64
	TimeSteps        int
	ComputeSeconds   float64
	// Collective enables the HDF5 metadata optimization (root-only
	// metadata region access).
	Collective bool
	// FilePrefix names the per-step files: <prefix>-<step>.h5.
	FilePrefix string
}

// DefaultVPIC returns the paper's configuration.
func DefaultVPIC(steps int) VPICConfig {
	return VPICConfig{
		ParticlesPerRank: 8 << 20,
		Props:            8,
		BytesPerProp:     4,
		TimeSteps:        steps,
		ComputeSeconds:   60,
		Collective:       true,
		FilePrefix:       "vpic",
	}
}

// StepFile returns the shared file name of one time step.
func (c VPICConfig) StepFile(step int) string {
	return fmt.Sprintf("%s-%03d.h5", c.FilePrefix, step)
}

// BytesPerRankStep returns the data one rank writes per time step.
func (c VPICConfig) BytesPerRankStep() int64 {
	return c.ParticlesPerRank * c.BytesPerProp * int64(c.Props)
}

// VPICStats reports one rank's timings across all steps.
type VPICStats struct {
	StepIOTime []sim.Time // open+write+close per step
	TotalIO    sim.Time
	LastClose  sim.Time // absolute time of the last step's close return
}

// RunVPIC executes the checkpointing kernel on one rank: per time step,
// collectively create the step's shared HDF5 file with one dataset per
// particle property, write this rank's particle slab into each, close, and
// compute for ComputeSeconds. All ranks of the app must call it.
func RunVPIC(r *mpi.Rank, env *mpiio.Env, cfg VPICConfig) (VPICStats, error) {
	var st VPICStats
	if cfg.TimeSteps <= 0 || cfg.Props <= 0 || cfg.ParticlesPerRank <= 0 {
		return st, fmt.Errorf("vpic: TimeSteps, Props, ParticlesPerRank must be positive")
	}
	totalParticles := cfg.ParticlesPerRank * int64(r.Size())
	for step := 0; step < cfg.TimeSteps; step++ {
		t0 := r.Now()
		f, err := env.Open(r, cfg.StepFile(step), mpi.WriteOnly)
		if err != nil {
			return st, fmt.Errorf("vpic step %d open: %w", step, err)
		}
		h := hdf5lite.Create(r, f, cfg.Collective)
		for p := 0; p < cfg.Props; p++ {
			ds, err := h.CreateDataset(propName(p), cfg.BytesPerProp, totalParticles)
			if err != nil {
				return st, fmt.Errorf("vpic step %d dataset: %w", step, err)
			}
			if err := ds.WriteElems(int64(r.Rank())*cfg.ParticlesPerRank, cfg.ParticlesPerRank, nil); err != nil {
				return st, fmt.Errorf("vpic step %d write: %w", step, err)
			}
		}
		if err := h.Close(); err != nil {
			return st, fmt.Errorf("vpic step %d close: %w", step, err)
		}
		d := r.Now() - t0
		st.StepIOTime = append(st.StepIOTime, d)
		st.TotalIO += d
		st.LastClose = r.Now()
		if step < cfg.TimeSteps-1 && cfg.ComputeSeconds > 0 {
			r.Compute(cfg.ComputeSeconds)
		}
	}
	return st, nil
}

func propName(p int) string {
	names := []string{"x", "y", "z", "ux", "uy", "uz", "q", "id"}
	if p < len(names) {
		return names[p]
	}
	return fmt.Sprintf("prop%d", p)
}

// ---------------------------------------------------------------------------
// BD-CATS-IO.

// BDCATSConfig shapes the analysis kernel: read all properties of all
// particles, partitioned evenly across the analysis ranks.
type BDCATSConfig struct {
	VPIC       VPICConfig // the producing kernel's layout
	WritersN   int        // rank count of the producing app
	Collective bool
}

// BDCATSStats reports one rank's timings.
type BDCATSStats struct {
	StepIOTime []sim.Time
	TotalIO    sim.Time
}

// RunBDCATS reads each time step's file: every analysis rank reads its
// contiguous share of every property dataset. All ranks of the analysis
// app must call it.
func RunBDCATS(r *mpi.Rank, env *mpiio.Env, cfg BDCATSConfig) (BDCATSStats, error) {
	var st BDCATSStats
	totalParticles := cfg.VPIC.ParticlesPerRank * int64(cfg.WritersN)
	perRank := totalParticles / int64(r.Size())
	rem := totalParticles % int64(r.Size())
	myStart := int64(r.Rank()) * perRank
	myCount := perRank
	if int64(r.Rank()) == int64(r.Size())-1 {
		myCount += rem
	}
	for step := 0; step < cfg.VPIC.TimeSteps; step++ {
		t0 := r.Now()
		f, err := env.Open(r, cfg.VPIC.StepFile(step), mpi.ReadOnly)
		if err != nil {
			return st, fmt.Errorf("bdcats step %d open: %w", step, err)
		}
		h, err := hdf5lite.Open(r, f, cfg.Collective)
		if err != nil {
			return st, fmt.Errorf("bdcats step %d container: %w", step, err)
		}
		for p := 0; p < cfg.VPIC.Props; p++ {
			ds, err := h.OpenDataset(propName(p))
			if err != nil {
				return st, fmt.Errorf("bdcats step %d dataset: %w", step, err)
			}
			if _, err := ds.ReadElems(myStart, myCount); err != nil {
				return st, fmt.Errorf("bdcats step %d read: %w", step, err)
			}
		}
		if err := h.Close(); err != nil {
			return st, fmt.Errorf("bdcats step %d close: %w", step, err)
		}
		d := r.Now() - t0
		st.StepIOTime = append(st.StepIOTime, d)
		st.TotalIO += d
	}
	return st, nil
}
