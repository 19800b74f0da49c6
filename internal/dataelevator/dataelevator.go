// Package dataelevator reimplements Data Elevator (Dong et al., HiPC'16),
// the state-of-the-art transparent burst-buffer caching baseline of the
// paper's evaluation. Data Elevator intercepts an application's writes to a
// shared HDF5 file and redirects them to one shared file on the burst
// buffer, then asynchronously flushes that file to the PFS after close.
//
// The deliberate contrasts with UniviStor (§III-A):
//
//   - one shared file on the BB (extent contention grows with scale) versus
//     UniviStor's file-per-process logs;
//   - no DRAM tier — the fastest cache is the shared burst buffer;
//   - conventional stripe-all flushing with no interference-aware
//     scheduling and no adaptive striping.
package dataelevator

import (
	"fmt"
	"math"

	"univistor/internal/bb"
	"univistor/internal/extent"
	"univistor/internal/lustre"
	"univistor/internal/mpi"
	"univistor/internal/mpiio"
	"univistor/internal/sim"
	"univistor/internal/striping"
)

// The Data Elevator deployment of the evaluation.
const (
	// serversPerNode is the number of DE flusher processes per compute
	// node (the evaluation matches UniviStor's 2).
	serversPerNode = 2
	// bbLockEff is the extent-contention efficiency of the shared file on
	// the burst buffer.
	bbLockEff = 0.75
	// flushLockEff is the extent-lock efficiency of the flush writes to
	// the shared PFS file (DE flushes stripe-all without alignment).
	flushLockEff = 0.5
)

// Driver is the Data Elevator ADIO driver.
type Driver struct {
	W   *mpi.World
	BB  *bb.System
	PFS *lustre.FS

	bbAgg *sim.Resource
	files map[string]*deFile
}

// New builds the driver over the job's BB allocation and the PFS.
func New(w *mpi.World, bbs *bb.System, pfs *lustre.FS) (*Driver, error) {
	if bbs == nil {
		return nil, fmt.Errorf("dataelevator: requires a burst-buffer allocation")
	}
	return &Driver{
		W: w, BB: bbs, PFS: pfs,
		bbAgg: w.E.NewResource("de-bb-agg", bbs.AggregateBW()),
		files: map[string]*deFile{},
	}, nil
}

// Name returns "dataelevator".
func (d *Driver) Name() string { return "dataelevator" }

type deFile struct {
	name    string
	bbf     *bb.File
	content extent.Map
	size    int64
	flush   *deFlush // nil until the flush is triggered
}

// deFlush is a file's one flush, from its trigger until the last flusher
// finishes its range.
type deFlush struct {
	start, end sim.Time
	remaining  int       // flushers still writing
	done       sim.Event // set when the last flusher finishes
}

// Open is the collective open. Write mode creates the shared cache file on
// the burst buffer.
func (d *Driver) Open(r *mpi.Rank, name string, mode mpi.Mode) (mpiio.File, error) {
	r.P.Sleep(d.W.Cluster.Cfg.BBLatency)
	r.Barrier()
	f, ok := d.files[name]
	if !ok {
		if mode == mpi.ReadOnly {
			return nil, fmt.Errorf("dataelevator: file %q does not exist", name)
		}
		f = &deFile{name: name, bbf: d.BB.Create("de:"+name, bbLockEff)}
		d.files[name] = f
	}
	return &deHandle{d: d, f: f, r: r, mode: mode}, nil
}

type deHandle struct {
	d      *Driver
	f      *deFile
	r      *mpi.Rank
	mode   mpi.Mode
	closed bool
}

func (h *deHandle) WriteAt(off, size int64, data []byte) error {
	if h.closed || h.mode != mpi.WriteOnly {
		return fmt.Errorf("dataelevator: invalid write on %q", h.f.name)
	}
	if size <= 0 {
		return fmt.Errorf("dataelevator: write size %d must be positive", size)
	}
	if off < 0 || off > math.MaxInt64-size {
		return fmt.Errorf("dataelevator: write offset %d is negative or its end overflows", off)
	}
	if err := h.f.bbf.Write(h.r.P, h.r.Node(), off, size, h.r.H.MemPort); err != nil {
		return err
	}
	if data != nil {
		h.f.content.Write(off, data)
	}
	if end := off + size; end > h.f.size {
		h.f.size = end
	}
	return nil
}

func (h *deHandle) ReadAt(off, size int64) ([]byte, error) {
	if h.closed {
		return nil, fmt.Errorf("dataelevator: read from closed %q", h.f.name)
	}
	if size <= 0 {
		return nil, fmt.Errorf("dataelevator: read size %d must be positive", size)
	}
	if off < 0 || off > math.MaxInt64-size {
		return nil, fmt.Errorf("dataelevator: read offset %d is negative or its end overflows", off)
	}
	// Reads are served from the burst-buffer cache (it retains the data
	// after flush, like any cache).
	h.f.bbf.Read(h.r.P, h.r.Node(), off, size, h.r.H.MemPort)
	data := h.f.content.Read(off, size)
	return data, nil
}

// Close is collective; the root triggers the asynchronous flush.
func (h *deHandle) Close() error {
	if h.closed {
		return fmt.Errorf("dataelevator: double close of %q", h.f.name)
	}
	h.closed = true
	h.r.P.Sleep(h.d.W.Cluster.Cfg.BBLatency)
	h.r.Barrier()
	if h.r.Rank() == 0 && h.mode == mpi.WriteOnly {
		h.d.triggerFlush(h.r.P, h.f)
	}
	return nil
}

// triggerFlush starts the DE server-side flush: serversPerNode flusher
// processes per compute node, each writing a contiguous range of the cached
// file to a shared stripe-all PFS file (no adaptive striping, no
// interference-aware scheduling).
func (d *Driver) triggerFlush(p *sim.Proc, f *deFile) {
	if f.flush != nil || f.size == 0 {
		return
	}
	spec := lustre.StripeSpec{Size: 1 << 20, Count: d.PFS.OSTCount(), StartOST: 0}
	pfsFile, err := d.PFS.Create("deflush:"+f.name, spec, flushLockEff)
	if err != nil {
		panic(fmt.Sprintf("dataelevator: flush file: %v", err))
	}
	nServers := len(d.W.Cluster.Nodes) * serversPerNode
	fl := &deFlush{start: p.Now(), remaining: nServers}
	f.flush = fl
	for i := 0; i < nServers; i++ {
		rangeOff, length := striping.ServerRange(f.size, nServers, i)
		node := i / serversPerNode
		if length == 0 {
			fl.remaining--
			continue
		}
		d.W.E.Go(fmt.Sprintf("de-flush[%d]", i), func(fp *sim.Proc) {
			if err := pfsFile.Write(fp, node, rangeOff, length, d.bbAgg); err != nil {
				panic(fmt.Sprintf("dataelevator: flush write: %v", err))
			}
			if fl.remaining--; fl.remaining == 0 {
				fl.end = fp.Now()
				fl.done.Set()
			}
		})
	}
}

// WaitFlush blocks until the file's flush completes (no-op if none ran).
func (d *Driver) WaitFlush(p *sim.Proc, name string) {
	if f, ok := d.files[name]; ok && f.flush != nil {
		f.flush.done.Wait(p)
	}
}

// FlushStats reports the bytes and interval of the completed flush.
func (d *Driver) FlushStats(name string) (bytes int64, start, end sim.Time, ok bool) {
	f, found := d.files[name]
	if !found || f.flush == nil || f.flush.remaining > 0 {
		return 0, 0, 0, false
	}
	return f.size, f.flush.start, f.flush.end, true
}
