package tier

// Adapters wrapping the device models: each backend's capacity rule and
// transfer paths. The resource paths here are load-bearing: they reproduce
// the seed model's write/read legs exactly, so benchmark shapes are
// unchanged.

import (
	"fmt"

	"univistor/internal/lustre"
	"univistor/internal/meta"
	"univistor/internal/sim"
)

// The shares of a pool the per-process logs may claim in aggregate (c in
// the paper's c/p) when no fixed log size is configured: of the node's
// DRAM tier, of its local SSD, and of the job's burst-buffer allocation.
const (
	dramLogFraction = 0.8
	ssdLogFraction  = 1.0
	bbLogFraction   = 0.9
)

// nodeLocalRead is the shared read path of the private node-local tiers
// (DRAM, local SSD): direct on the producer's node, one server round-trip
// plus the network otherwise, with the extra relay through the reader's
// co-located server when the location-aware service is off.
func nodeLocalRead(env *Env, p *sim.Proc, op ReadOp) (Locality, error) {
	if op.ProducerNode == op.ReaderNode {
		if op.LocationAware {
			// Direct local read: no server in the path.
			p.Transfer(float64(op.Size), op.ReaderMemPath...)
		} else {
			// Extra copy through the reader's co-located server.
			path := append([]*sim.Resource{op.ReaderMemPort}, op.ReaderSrvMemPath...)
			p.Transfer(float64(op.Size), path...)
		}
		return Local, nil
	}
	// Remote node-local segment: one round-trip via the producer-side
	// server (§II-B3), plus a relay through the local server without the
	// location-aware service.
	p.Sleep(env.Cluster.Cfg.NetLatency)
	path := append([]*sim.Resource{}, op.ProducerSrvMemPath...)
	path = append(path, env.Cluster.NetPath(op.ProducerNode, op.ReaderNode)...)
	if !op.LocationAware {
		path = append(path, op.ReaderSrvMemPort)
	}
	path = append(path, op.ReaderMemPort)
	p.Transfer(float64(op.Size), path...)
	return Remote, nil
}

// readExtras returns the reader-side resources appended to a shared-device
// transfer: the co-located server relay (without the location-aware
// service) and the reading process's memory port. The reader's memory path
// starts at that port, and the transfer only copies its extras, so the
// location-aware read passes that slice on and allocates nothing.
func readExtras(op ReadOp) []*sim.Resource {
	if op.LocationAware {
		return op.ReaderMemPath[:1]
	}
	return []*sim.Resource{op.ReaderSrvMemPort, op.ReaderMemPort}
}

// logFile is a per-process log on a shared striped device: a burst-buffer
// file or an object-store namespace. Transfers cross the node's NIC and
// the fabric to the device, then extra.
type logFile interface {
	Write(p *sim.Proc, node int, off, size int64, extra ...*sim.Resource) error
	Read(p *sim.Proc, node int, off, size int64, extra ...*sim.Resource)
}

// fileDevice adapts a logFile to the Device interface: writes land from
// the co-located server's memory port, reads pass readExtras.
type fileDevice struct{ f logFile }

func (d fileDevice) Write(p *sim.Proc, op WriteOp) error {
	// The server's memory path starts at its memory port. Passing that
	// slice on spares the call through the interface an allocation.
	return d.f.Write(p, op.Node, op.Addr, op.Size, op.ServerMemPath[:1]...)
}

func (d fileDevice) Read(p *sim.Proc, op ReadOp) (Locality, error) {
	d.f.Read(p, op.ReaderNode, op.Addr, op.Size, readExtras(op)...)
	return Shared, nil
}

// ---------------------------------------------------------------------------
// DRAM: node-local memory-mapped logs. The backend is every process's
// device too: it holds no per-process state.

type dramBackend struct {
	env *Env
	// path is the scratch slice each Write builds its path in. Transfer
	// copies the path when it starts the flow, so the next Write, by any
	// process, may overwrite it.
	path []*sim.Resource
}

func newDRAM(env *Env) Backend { return &dramBackend{env: env} }

func (b *dramBackend) Tier() meta.Tier { return meta.TierDRAM }
func (b *dramBackend) Shared() bool    { return false }

func (b *dramBackend) Open(req OpenReq) (Device, int64) {
	return b, b.env.Cfg.provision(b.env.Cluster.Nodes[req.Node].DRAM, meta.TierDRAM, dramLogFraction, req.ProcsOnNode)
}

func (b *dramBackend) FlushLeg(node int, serverMemPath []*sim.Resource) []*sim.Resource {
	return serverMemPath
}

func (b *dramBackend) Write(p *sim.Proc, op WriteOp) error {
	// Client buffer → shared-memory log: both the client's and the
	// server's core ports plus the server's NUMA memory port.
	b.path = append(append(b.path[:0], op.ClientMemPort), op.ServerMemPath...)
	p.Transfer(float64(op.Size), b.path...)
	return nil
}

func (b *dramBackend) Read(p *sim.Proc, op ReadOp) (Locality, error) {
	return nodeLocalRead(b.env, p, op)
}

// ---------------------------------------------------------------------------
// Local SSD: optional node-local NVRAM/SSD tier, its own device like DRAM.
// A node without SSD capacity provisions no SSD log, so bytes reach the
// SSD paths below only on nodes that have the SSDBW resource.

type ssdBackend struct{ env *Env }

func newLocalSSD(env *Env) Backend { return &ssdBackend{env} }

func (b *ssdBackend) Tier() meta.Tier { return meta.TierLocalSSD }
func (b *ssdBackend) Shared() bool    { return false }

func (b *ssdBackend) Open(req OpenReq) (Device, int64) {
	return b, b.env.Cfg.provision(b.env.Cluster.Nodes[req.Node].SSD, meta.TierLocalSSD, ssdLogFraction, req.ProcsOnNode)
}

func (b *ssdBackend) FlushLeg(node int, serverMemPath []*sim.Resource) []*sim.Resource {
	return []*sim.Resource{b.env.Cluster.Nodes[node].SSDBW}
}

func (b *ssdBackend) Write(p *sim.Proc, op WriteOp) error {
	p.Transfer(float64(op.Size), op.ClientMemPort, op.ServerMemPort, b.env.Cluster.Nodes[op.Node].SSDBW)
	return nil
}

func (b *ssdBackend) Read(p *sim.Proc, op ReadOp) (Locality, error) {
	return nodeLocalRead(b.env, p, op)
}

// ---------------------------------------------------------------------------
// Burst buffer: the shared DataWarp-style allocation.

type bbBackend struct {
	env     *Env
	readAgg *sim.Resource // aggregate BB read leg for flush pipelines
}

func newBB(env *Env) Backend {
	if env.BB == nil {
		// No burst-buffer allocation: the tier is unavailable (the
		// paper's UniviStor/DRAM mode runs without one).
		return nil
	}
	return &bbBackend{
		env:     env,
		readAgg: env.Cluster.E.NewResource("bb-read-agg", env.BB.AggregateBW()),
	}
}

func (b *bbBackend) Tier() meta.Tier { return meta.TierBB }
func (b *bbBackend) Shared() bool    { return true }

// Open reserves the log's space from the BB pool, so the file itself must
// not charge it again.
func (b *bbBackend) Open(req OpenReq) (Device, int64) {
	want := b.env.Cfg.logShare(meta.TierBB, b.env.BB.FreeBytes(), bbLogFraction, req.ProcsGlobal, true)
	got := b.reserve(want)
	if got -= got % b.env.Cfg.ChunkSize; got <= 0 {
		return nil, 0
	}
	return fileDevice{b.env.BB.CreateReserved(fmt.Sprintf("uvlog/%d/%d", req.FID, req.Owner), 1)}, got
}

// reserve takes bytes from the BB pool, spread evenly across the service
// nodes; it returns the bytes actually reserved (shrinking when low).
func (b *bbBackend) reserve(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	nodes := b.env.Cluster.BB
	per := bytes / int64(len(nodes))
	rem := bytes - per*int64(len(nodes))
	var got int64
	for i, n := range nodes {
		bn := per
		if int64(i) < rem {
			bn++
		}
		if free := n.Cap.Free(); bn > free {
			bn = free
		}
		if bn > 0 && n.Cap.Alloc(bn) {
			got += bn
		}
	}
	return got
}

func (b *bbBackend) FlushLeg(node int, serverMemPath []*sim.Resource) []*sim.Resource {
	return []*sim.Resource{b.readAgg, b.env.Cluster.Fabric}
}

// ---------------------------------------------------------------------------
// PFS: the durable terminal. Per-process spill logs are created lazily on
// first spill — eager creation would advance the OST round-robin cursor
// for processes that never spill.

type pfsBackend struct{ env *Env }

func newPFS(env *Env) Backend { return &pfsBackend{env} }

func (b *pfsBackend) Tier() meta.Tier { return meta.TierPFS }
func (b *pfsBackend) Shared() bool    { return true }

// Open reserves nothing: the terminal is unbounded, and the spill log
// grows on demand.
func (b *pfsBackend) Open(req OpenReq) (Device, int64) {
	return &pfsDevice{env: b.env, fid: req.FID, owner: req.Owner}, 0
}

func (b *pfsBackend) FlushLeg(int, []*sim.Resource) []*sim.Resource {
	return nil // durable: the flush pipeline has nothing to move
}

type pfsDevice struct {
	env   *Env
	fid   int64
	owner int
	file  *lustre.File
}

func (d *pfsDevice) Write(p *sim.Proc, op WriteOp) error {
	if d.file == nil {
		f, err := d.env.PFS.Create(
			fmt.Sprintf("uvspill/%d/%d", d.fid, d.owner),
			lustre.StripeSpec{Size: 1 << 20, Count: min(4, d.env.PFS.OSTCount()), StartOST: lustre.AutoStart}, 1)
		if err != nil {
			return err
		}
		d.file = f
	}
	return d.file.Write(p, op.Node, op.Addr, op.Size, op.ServerMemPort)
}

func (d *pfsDevice) Read(p *sim.Proc, op ReadOp) (Locality, error) {
	if d.file == nil {
		return Shared, fmt.Errorf("tier: proc %d has no PFS spill log", d.owner)
	}
	d.file.Read(p, op.ReaderNode, op.Addr, op.Size, readExtras(op)...)
	return Shared, nil
}
