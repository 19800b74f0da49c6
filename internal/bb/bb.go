// Package bb models the shared burst buffer: an array of SSD-based service
// nodes reachable from every compute node over the fabric, with files
// striped across the BB nodes DataWarp-style. Like the PFS model, a shared
// file written concurrently by many clients can carry an extent-contention
// cap; the per-process log files UniviStor places on the burst buffer do
// not (that difference is the UniviStor/BB-vs-Data-Elevator gap of Fig. 6).
package bb

import (
	"fmt"

	"univistor/internal/sim"
	"univistor/internal/striping"
	"univistor/internal/topology"
)

// System is the job's burst-buffer allocation.
type System struct {
	cluster *topology.Cluster
	files   map[string]*File
	nextID  int

	fan striping.Fanout // every file's stripe walks and transfers
}

// New returns the burst-buffer system of the cluster. It returns an error
// when the cluster was built without BB nodes.
func New(c *topology.Cluster) (*System, error) {
	if len(c.BB) == 0 {
		return nil, fmt.Errorf("bb: cluster has no burst-buffer allocation")
	}
	return &System{cluster: c, files: map[string]*File{}}, nil
}

// AggregateBW returns the allocation's total bandwidth in bytes/s.
func (s *System) AggregateBW() float64 { return s.cluster.BBAggregateBW() }

// FreeBytes returns the space left across all BB nodes.
func (s *System) FreeBytes() int64 {
	var free int64
	for _, n := range s.cluster.BB {
		free += n.Cap.Free()
	}
	return free
}

// File is one burst-buffer resident file, striped across all BB nodes
// starting at a per-file offset so files spread evenly.
type File struct {
	sys   *System
	name  string
	start int // first BB node of stripe 0
	size  int64
	lock  *sim.Resource
	// reserved files have their space charged to the pool up front by the
	// owner (UniviStor's per-process logs reserve c/p at open); writes
	// then skip per-write capacity accounting.
	reserved bool
}

// Create creates (or truncates) a BB file. lockEff in (0, 1) installs the
// shared-file contention cap at lockEff × aggregate BB bandwidth; other
// values disable it (use for file-per-process data).
func (s *System) Create(name string, lockEff float64) *File {
	if old, ok := s.files[name]; ok {
		old.release()
	}
	f := &File{sys: s, name: name, start: s.nextID % len(s.cluster.BB)}
	s.nextID++
	if lockEff > 0 && lockEff < 1 {
		f.lock = s.cluster.E.NewResource("bblock:"+name, lockEff*s.AggregateBW())
	}
	s.files[name] = f
	return f
}

// CreateReserved creates a BB file whose capacity was already charged to
// the pool by the caller (e.g. a pre-sized per-process log). Writes do not
// allocate, and re-creating the name does not release.
func (s *System) CreateReserved(name string, lockEff float64) *File {
	f := s.Create(name, lockEff)
	f.reserved = true
	return f
}

func (f *File) release() {
	if !f.reserved {
		for _, part := range f.parts(0, f.size) {
			f.sys.cluster.BB[part.Unit].Cap.Release(part.Size)
		}
	}
	f.size = 0
}

// stripeNode maps a stripe index to a BB node. DataWarp-style placement
// hashes the stripe so that synchronized writers with power-of-two strides
// do not alias onto the same service node (plain round-robin would send
// every rank's k-th chunk to one node when blocks span a multiple of the
// node count).
func (f *File) stripeNode(stripe int64) int {
	n := uint64(len(f.sys.cluster.BB))
	return int((uint64(f.start) + striping.Mix(uint64(stripe))) % n)
}

// parts distributes [off, off+size) across BB nodes stripe by stripe,
// into the system's Fanout parts. Very large ranges (≫ one pass over the
// nodes) collapse to an even split.
func (f *File) parts(off, size int64) []striping.Part {
	s := f.sys
	ss := s.cluster.Cfg.BBStripeSize
	n := len(s.cluster.BB)
	if striping.Stripes(off, size, ss) > 8*int64(n) {
		// Whole-file-scale range: statistically even across all nodes.
		s.fan.Parts = striping.Even(s.fan.Parts[:0], size, n, func(i int) int { return i })
	} else {
		s.fan.Parts = striping.Cut(s.fan.Parts[:0], off, size, ss, n, f.stripeNode)
	}
	return s.fan.Parts
}

// Write models one write call from a client on the given compute node.
func (f *File) Write(p *sim.Proc, node int, off, size int64, extra ...*sim.Resource) error {
	if size <= 0 {
		return nil
	}
	if end := off + size; end > f.size {
		if !f.reserved {
			for _, part := range f.parts(f.size, end-f.size) {
				if !f.sys.cluster.BB[part.Unit].Cap.Alloc(part.Size) {
					return fmt.Errorf("bb: node %d out of space writing %s", part.Unit, f.name)
				}
			}
		}
		f.size = end
	}
	f.transfer(p, node, off, size, f.lock, extra)
	return nil
}

// Read models one read call into a client on the given compute node. Reads
// skip the write-contention cap: DataWarp read paths do not serialize on
// extent locks the way concurrent writes do.
func (f *File) Read(p *sim.Proc, node int, off, size int64, extra ...*sim.Resource) {
	if size <= 0 {
		return
	}
	f.transfer(p, node, off, size, nil, extra)
}

func (f *File) transfer(p *sim.Proc, node int, off, size int64, lock *sim.Resource, extra []*sim.Resource) {
	s := f.sys
	c := s.cluster
	p.Sleep(c.Cfg.BBLatency)
	f.parts(off, size)
	s.fan.Transfer(p, []*sim.Resource{c.Nodes[node].NIC, c.Fabric},
		func(u int) *sim.Resource { return c.BB[u].BW }, lock, extra)
}
