package mpiio

import (
	"fmt"
	"math"

	"univistor/internal/extent"
	"univistor/internal/lustre"
	"univistor/internal/mpi"
	"univistor/internal/sim"
	"univistor/internal/topology"
)

// LustreDriver is the conventional path: applications write one shared file
// straight to the disk-based PFS, paying extent-lock contention and disk
// bandwidth on every access. It is the "Lustre" baseline of the evaluation.
// Shared files are striped wide (all OSTs, 1 MiB stripes), the usual tuning
// for large shared checkpoints.
type LustreDriver struct {
	FS *lustre.FS
	// cfg is the cluster config of FS. Its SharedFileEff is the shared-file
	// extent-lock efficiency and its SharedWriterBW the per-process
	// throughput ceiling on a contended shared file.
	cfg *topology.Config

	files map[string]*lustreShared
}

type lustreShared struct {
	f       *lustre.File
	content extent.Map
	// Per-writer extent-lock serialization: every concurrent writer of a
	// contended shared file is individually throttled by lock
	// acquire/release round-trips. writerPorts[rank] caps one writer;
	// readers share the same mechanism at 4× (read locks are shared).
	writerPorts map[int]*sim.Resource
	readerPorts map[int]*sim.Resource
}

// NewLustreDriver returns the baseline driver over the PFS model. Its
// contention model comes from the cluster config of fs.
func NewLustreDriver(fs *lustre.FS) *LustreDriver {
	return &LustreDriver{FS: fs, cfg: &fs.Cluster().Cfg, files: map[string]*lustreShared{}}
}

// Name returns "lustre".
func (d *LustreDriver) Name() string { return "lustre" }

// Open is the collective open: an MDS round-trip per rank plus a barrier.
func (d *LustreDriver) Open(r *mpi.Rank, name string, mode mpi.Mode) (File, error) {
	cfg := r.World().Cluster.Cfg
	r.P.Sleep(cfg.PFSLatency) // MDS RPC
	r.Barrier()
	sh, ok := d.files[name]
	if !ok {
		if mode == mpi.ReadOnly {
			return nil, fmt.Errorf("lustre driver: file %q does not exist", name)
		}
		spec := lustre.StripeSpec{Size: 1 << 20, Count: d.FS.OSTCount(), StartOST: lustre.AutoStart}
		f, err := d.FS.Create(name, spec, d.cfg.SharedFileEff)
		if err != nil {
			return nil, err
		}
		sh = &lustreShared{f: f, writerPorts: map[int]*sim.Resource{}, readerPorts: map[int]*sim.Resource{}}
		d.files[name] = sh
	}
	return &lustreFile{d: d, sh: sh, r: r, mode: mode}, nil
}

type lustreFile struct {
	d      *LustreDriver
	sh     *lustreShared
	r      *mpi.Rank
	mode   mpi.Mode
	closed bool
}

func (f *lustreFile) WriteAt(off, size int64, data []byte) error {
	if f.closed {
		return fmt.Errorf("lustre driver: write to closed file")
	}
	if f.mode != mpi.WriteOnly {
		return fmt.Errorf("lustre driver: file opened read-only")
	}
	if size <= 0 {
		return fmt.Errorf("lustre driver: write size %d must be positive", size)
	}
	if off < 0 || off > math.MaxInt64-size {
		return fmt.Errorf("lustre driver: write offset %d is negative or its end overflows", off)
	}
	extra := f.extra(f.sh.writerPorts, "lwr", f.d.cfg.SharedWriterBW)
	if err := f.sh.f.Write(f.r.P, f.r.Node(), off, size, extra...); err != nil {
		return err
	}
	if data != nil {
		f.sh.content.Write(off, data)
	}
	return nil
}

func (f *lustreFile) ReadAt(off, size int64) ([]byte, error) {
	if f.closed {
		return nil, fmt.Errorf("lustre driver: read from closed file")
	}
	if size <= 0 {
		return nil, fmt.Errorf("lustre driver: read size %d must be positive", size)
	}
	if off < 0 || off > math.MaxInt64-size {
		return nil, fmt.Errorf("lustre driver: read offset %d is negative or its end overflows", off)
	}
	extra := f.extra(f.sh.readerPorts, "lrd", 4*f.d.cfg.SharedWriterBW)
	f.sh.f.Read(f.r.P, f.r.Node(), off, size, extra...)
	data := f.sh.content.Read(off, size)
	return data, nil
}

// extra returns the resources this rank's transfers cross besides the PFS:
// its memory port and, when shared files are contended (a lock efficiency
// below 1), its extent-lock port in ports, created on first use as
// prefix:file/rank with bandwidth bw.
func (f *lustreFile) extra(ports map[int]*sim.Resource, prefix string, bw float64) []*sim.Resource {
	extra := []*sim.Resource{f.r.H.MemPort}
	if f.d.cfg.SharedFileEff >= 1 {
		return extra
	}
	p, ok := ports[f.r.Rank()]
	if !ok {
		p = f.r.World().E.NewResource(fmt.Sprintf("%s:%s/%d", prefix, f.sh.f.Name(), f.r.Rank()), bw)
		ports[f.r.Rank()] = p
	}
	return append(extra, p)
}

func (f *lustreFile) Close() error {
	if f.closed {
		return fmt.Errorf("lustre driver: double close")
	}
	f.closed = true
	f.r.P.Sleep(f.r.World().Cluster.Cfg.PFSLatency)
	f.r.Barrier()
	return nil
}
