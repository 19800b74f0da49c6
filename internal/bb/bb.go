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
	"univistor/internal/topology"
)

// System is the job's burst-buffer allocation.
type System struct {
	cluster *topology.Cluster
	files   map[string]*File
	nextID  int
}

// New returns the burst-buffer system of the cluster. It returns an error
// when the cluster was built without BB nodes.
func New(c *topology.Cluster) (*System, error) {
	if len(c.BB) == 0 {
		return nil, fmt.Errorf("bb: cluster has no burst-buffer allocation")
	}
	return &System{cluster: c, files: map[string]*File{}}, nil
}

// Nodes returns the number of BB service nodes.
func (s *System) Nodes() int { return len(s.cluster.BB) }

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
		f.lock = sim.NewResource("bblock:"+name, lockEff*s.AggregateBW())
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

// Open returns an existing BB file.
func (s *System) Open(name string) (*File, bool) {
	f, ok := s.files[name]
	return f, ok
}

func (f *File) release() {
	if !f.reserved {
		for _, part := range f.parts(0, f.size) {
			f.sys.cluster.BB[part.node].Cap.Release(part.size)
		}
	}
	f.size = 0
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the file's high-water mark in bytes.
func (f *File) Size() int64 { return f.size }

type bbPart struct {
	node int
	size int64
}

// stripeNode maps a stripe index to a BB node. DataWarp-style placement
// hashes the stripe so that synchronized writers with power-of-two strides
// do not alias onto the same service node (plain round-robin would send
// every rank's k-th chunk to one node when blocks span a multiple of the
// node count).
func (f *File) stripeNode(stripe int64) int {
	h := uint64(stripe)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	n := uint64(len(f.sys.cluster.BB))
	return int((uint64(f.start) + h) % n)
}

// parts distributes [off, off+size) across BB nodes stripe by stripe. Very
// large ranges (≫ one pass over the nodes) collapse to an even split.
func (f *File) parts(off, size int64) []bbPart {
	if size <= 0 {
		return nil
	}
	ss := f.sys.cluster.Cfg.BBStripeSize
	n := int64(len(f.sys.cluster.BB))
	first := off / ss
	last := (off + size - 1) / ss
	nStripes := last - first + 1
	if nStripes > 8*n {
		// Whole-file-scale range: statistically even across all nodes.
		per := size / n
		rem := size - per*n
		out := make([]bbPart, 0, n)
		for i := int64(0); i < n; i++ {
			sz := per
			if i < rem {
				sz++
			}
			out = append(out, bbPart{node: int(i), size: sz})
		}
		return out
	}
	idx := map[int]int{}
	var out []bbPart
	for st := first; st <= last; st++ {
		lo, hi := st*ss, (st+1)*ss
		if lo < off {
			lo = off
		}
		if hi > off+size {
			hi = off + size
		}
		node := f.stripeNode(st)
		if i, ok := idx[node]; ok {
			out[i].size += hi - lo
		} else {
			idx[node] = len(out)
			out = append(out, bbPart{node: node, size: hi - lo})
		}
	}
	return out
}

// Write models one write call from a client on the given compute node.
func (f *File) Write(p *sim.Proc, node int, off, size int64, extra ...*sim.Resource) error {
	if size <= 0 {
		return nil
	}
	if end := off + size; end > f.size {
		if !f.reserved {
			for _, part := range f.parts(f.size, end-f.size) {
				if !f.sys.cluster.BB[part.node].Cap.Alloc(part.size) {
					return fmt.Errorf("bb: node %d out of space writing %s", part.node, f.name)
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
	c := f.sys.cluster
	p.Sleep(c.Cfg.BBLatency)
	parts := f.parts(off, size)
	flows := make([]sim.Flow, 0, len(parts))
	for _, part := range parts {
		path := []*sim.Resource{c.Nodes[node].NIC, c.Fabric, c.BB[part.node].BW}
		if lock != nil {
			path = append(path, lock)
		}
		path = append(path, extra...)
		flows = append(flows, sim.Flow{Size: float64(part.size), Path: path})
	}
	p.TransferAll(flows)
}
