// Package lustre models a Lustre-like disk-based parallel file system: an
// array of object storage targets (OSTs), per-file stripe layouts (size,
// count, starting OST), per-RPC latency charged per OST contacted, and
// extent-lock contention that caps the aggregate bandwidth a concurrently
// written shared file can extract from its stripes.
//
// The model reproduces the two PFS phenomena the paper builds on:
//
//   - Shared-file writes do not scale: concurrent writers to one file fight
//     over extent locks, so the file's aggregate bandwidth plateaus at a
//     fraction of its stripes' raw bandwidth (motivates UniviStor's
//     file-per-process transformation, §II-B1).
//
//   - Stripe placement drives load balance: when writers outnumber OSTs,
//     uneven writer-per-OST assignment leaves stragglers that set the
//     completion time (motivates adaptive striping, §II-D).
package lustre

import (
	"fmt"

	"univistor/internal/sim"
	"univistor/internal/striping"
	"univistor/internal/topology"
)

// StripeSpec is a file's stripe layout, mirroring lfs setstripe.
type StripeSpec struct {
	Size  int64 // bytes per stripe
	Count int   // number of OSTs the file is striped across
	// StartOST is the first OST index; AutoStart (-1) lets the file system
	// pick round-robin, as Lustre's allocator does.
	StartOST int
}

// AutoStart requests allocator-chosen stripe placement.
const AutoStart = -1

// FS is one mounted Lustre file system.
type FS struct {
	cluster *topology.Cluster
	files   map[string]*File
	nextOST int
}

// NewFS mounts the model over the cluster's OSTs.
func NewFS(c *topology.Cluster) *FS {
	return &FS{cluster: c, files: map[string]*File{}}
}

// OSTCount returns the number of OSTs (C_max_units in Eq. 2).
func (fs *FS) OSTCount() int { return len(fs.cluster.OSTs) }

// Cluster returns the cluster the file system runs on.
func (fs *FS) Cluster() *topology.Cluster { return fs.cluster }

// File is one PFS file with a fixed stripe layout.
type File struct {
	fs   *FS
	name string
	spec StripeSpec

	size      int64 // high-water mark, for capacity accounting
	writeLock *sim.Resource
	readLock  *sim.Resource
}

// Create creates a file with the given stripe layout. lockEff in (0, 1)
// installs extent-lock contention: concurrent writers to the file share an
// aggregate cap of lockEff × Count × OSTBW (readers get twice that).
// lockEff outside (0, 1) — e.g. 1 for perfectly lock-aligned writers —
// disables the cap. Creating an existing name truncates it.
func (fs *FS) Create(name string, spec StripeSpec, lockEff float64) (*File, error) {
	if spec.Size <= 0 {
		return nil, fmt.Errorf("lustre: stripe size must be positive, got %d", spec.Size)
	}
	if spec.Count <= 0 || spec.Count > fs.OSTCount() {
		return nil, fmt.Errorf("lustre: stripe count %d outside [1, %d]", spec.Count, fs.OSTCount())
	}
	if spec.StartOST == AutoStart {
		spec.StartOST = fs.nextOST
		fs.nextOST = (fs.nextOST + spec.Count) % fs.OSTCount()
	}
	if spec.StartOST < 0 || spec.StartOST >= fs.OSTCount() {
		return nil, fmt.Errorf("lustre: start OST %d outside [0, %d)", spec.StartOST, fs.OSTCount())
	}
	if old, ok := fs.files[name]; ok {
		old.release()
	}
	f := &File{fs: fs, name: name, spec: spec}
	if lockEff > 0 && lockEff < 1 {
		agg := lockEff * float64(spec.Count) * fs.cluster.Cfg.OSTBW
		f.writeLock = sim.NewResource("lock:"+name, agg)
		f.readLock = sim.NewResource("rlock:"+name, 2*agg)
	}
	fs.files[name] = f
	return f, nil
}

// Open returns an existing file.
func (fs *FS) Open(name string) (*File, bool) {
	f, ok := fs.files[name]
	return f, ok
}

func (f *File) release() {
	for _, part := range f.layout().Parts(0, f.size) {
		f.fs.cluster.OSTs[part.Unit].Cap.Release(part.Size)
	}
	f.size = 0
}

// Name returns the file's path name.
func (f *File) Name() string { return f.name }

// Spec returns the stripe layout.
func (f *File) Spec() StripeSpec { return f.spec }

// Size returns the file's high-water mark in bytes.
func (f *File) Size() int64 { return f.size }

// layout maps the file's stripes onto the file system's OSTs.
func (f *File) layout() striping.Layout {
	return striping.Layout{Size: f.spec.Size, Count: f.spec.Count, Start: f.spec.StartOST, Units: f.fs.OSTCount()}
}

// Write models one write call of [off, off+size) from a client on the given
// node. extra resources (the writer's memory port, …) are appended to every
// transfer path. It blocks p for the full I/O time and returns an error on
// OST capacity exhaustion.
func (f *File) Write(p *sim.Proc, node int, off, size int64, extra ...*sim.Resource) error {
	if size <= 0 {
		return nil
	}
	// Grow capacity accounting for bytes beyond the high-water mark.
	if end := off + size; end > f.size {
		grown := end - f.size
		for _, part := range f.layout().Parts(f.size, grown) {
			if !f.fs.cluster.OSTs[part.Unit].Cap.Alloc(part.Size) {
				return fmt.Errorf("lustre: OST %d out of space writing %s", part.Unit, f.name)
			}
		}
		f.size = end
	}
	parts := f.layout().Parts(off, size)
	// One RPC round per OST contacted: the synchronization overhead that
	// makes needlessly wide striping expensive (§II-D case 1).
	p.Sleep(f.fs.cluster.Cfg.PFSLatency * float64(len(parts)))
	flows := make([]sim.Flow, 0, len(parts))
	for _, part := range parts {
		path := f.path(node, part.Unit, f.writeLock, extra)
		flows = append(flows, sim.Flow{Size: float64(part.Size), Path: path})
	}
	p.TransferAll(flows)
	return nil
}

// Read models one read call of [off, off+size) into a client on the node.
func (f *File) Read(p *sim.Proc, node int, off, size int64, extra ...*sim.Resource) {
	if size <= 0 {
		return
	}
	parts := f.layout().Parts(off, size)
	p.Sleep(f.fs.cluster.Cfg.PFSLatency * float64(len(parts)))
	flows := make([]sim.Flow, 0, len(parts))
	for _, part := range parts {
		path := f.path(node, part.Unit, f.readLock, extra)
		flows = append(flows, sim.Flow{Size: float64(part.Size), Path: path})
	}
	p.TransferAll(flows)
}

// path assembles the resource chain for one OST transfer: the node's
// Lustre client stack, its NIC, the fabric, and the target OST.
func (f *File) path(node, ost int, lock *sim.Resource, extra []*sim.Resource) []*sim.Resource {
	c := f.fs.cluster
	path := []*sim.Resource{c.Nodes[node].PFSPort, c.Nodes[node].NIC, c.Fabric, c.OSTs[ost].BW}
	if lock != nil {
		path = append(path, lock)
	}
	path = append(path, extra...)
	return path
}

// TouchedOSTs returns the distinct OSTs the byte range maps to, in stripe
// order.
func (f *File) TouchedOSTs(off, size int64) []int {
	var out []int
	seen := map[int]bool{}
	for _, part := range f.layout().Parts(off, size) {
		if !seen[part.Unit] {
			seen[part.Unit] = true
			out = append(out, part.Unit)
		}
	}
	return out
}
