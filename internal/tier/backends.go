package tier

// Adapters wrapping the existing device models — the per-backend homes of
// the transfer paths that previously lived in core's tier switches. The
// resource paths here are load-bearing: they reproduce the seed model's
// write/read legs exactly, so benchmark shapes are unchanged.

import (
	"fmt"

	"univistor/internal/lustre"
	"univistor/internal/meta"
	"univistor/internal/sim"
	"univistor/internal/trace"
)

// nodeLocalRead is the shared read path of the private node-local tiers
// (DRAM, local SSD): direct on the producer's node, one server round-trip
// plus the network otherwise, with the extra relay through the reader's
// co-located server when the location-aware service is off.
func nodeLocalRead(env *Env, p *sim.Proc, op *ReadOp) (Locality, error) {
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
// service) and the reading process's memory port.
func readExtras(op *ReadOp) []*sim.Resource {
	var extra []*sim.Resource
	if !op.LocationAware {
		extra = append(extra, op.ReaderSrvMemPort)
	}
	extra = append(extra, op.ReaderMemPort)
	return extra
}

// sharedFile is the device shape bb.File, lustre.File, and objLog share.
type sharedFile interface {
	Write(p *sim.Proc, node int, off, size int64, extra ...*sim.Resource) error
	Read(p *sim.Proc, node int, off, size int64, extra ...*sim.Resource)
}

// sharedDevice adapts a globally visible striped file to the Device
// interface.
type sharedDevice struct {
	f   sharedFile
	env *Env
	cat trace.Category
}

func (d sharedDevice) Write(p *sim.Proc, op *WriteOp) error {
	sp := d.env.Trace.Begin(p, d.cat, "write-op")
	err := d.f.Write(p, op.Node, op.Addr, op.Size, op.ServerMemPort)
	sp.End(p.Now())
	return err
}

func (d sharedDevice) Read(p *sim.Proc, op *ReadOp) (Locality, error) {
	sp := d.env.Trace.Begin(p, d.cat, "read-op")
	d.f.Read(p, op.ReaderNode, op.Addr, op.Size, readExtras(op)...)
	sp.End(p.Now())
	return Shared, nil
}

// ---------------------------------------------------------------------------
// DRAM: node-local memory-mapped logs.

type dramBackend struct{ env *Env }

func newDRAM(env *Env) (Backend, error) { return &dramBackend{env}, nil }

func (b *dramBackend) Tier() meta.Tier { return meta.TierDRAM }
func (b *dramBackend) Shared() bool    { return false }
func (b *dramBackend) Volatile() bool  { return true }
func (b *dramBackend) Durable() bool   { return false }

func (b *dramBackend) Provision(req ProvisionReq) (int64, error) {
	node := b.env.Cluster.Nodes[req.Node]
	p := int64(req.ProcsOnNode)
	if p < 1 {
		p = 1
	}
	want := b.env.Cfg.logBytes(meta.TierDRAM, b.env.Cfg.DRAMLogBytes)
	if want <= 0 {
		want = int64(float64(node.DRAM.Free()) * dramLogFraction / float64(p))
	}
	if free := node.DRAM.Free(); want > free {
		want = free // shrink rather than fail; the log spills sooner
	}
	want -= want % b.env.Cfg.ChunkSize
	if want > 0 && node.DRAM.Alloc(want) {
		return want, nil
	}
	return 0, nil
}

func (b *dramBackend) Open(OpenSpec) (Device, error) { return dramDevice{b.env}, nil }

func (b *dramBackend) FlushLeg(node int, serverMemPath []*sim.Resource) []*sim.Resource {
	return serverMemPath
}

type dramDevice struct{ env *Env }

func (d dramDevice) Write(p *sim.Proc, op *WriteOp) error {
	// Client buffer → shared-memory log: both the client's and the
	// server's core ports plus the server's NUMA memory port.
	sp := d.env.Trace.Begin(p, Cat(meta.TierDRAM), "write-op")
	path := append([]*sim.Resource{op.ClientMemPort}, op.ServerMemPath...)
	p.Transfer(float64(op.Size), path...)
	sp.End(p.Now())
	return nil
}

func (d dramDevice) Read(p *sim.Proc, op *ReadOp) (Locality, error) {
	sp := d.env.Trace.Begin(p, Cat(meta.TierDRAM), "read-op")
	loc, err := nodeLocalRead(d.env, p, op)
	sp.End(p.Now())
	return loc, err
}

// ---------------------------------------------------------------------------
// Local SSD: optional node-local NVRAM/SSD tier.

type ssdBackend struct{ env *Env }

func newLocalSSD(env *Env) (Backend, error) { return &ssdBackend{env}, nil }

func (b *ssdBackend) Tier() meta.Tier { return meta.TierLocalSSD }
func (b *ssdBackend) Shared() bool    { return false }
func (b *ssdBackend) Volatile() bool  { return true }
func (b *ssdBackend) Durable() bool   { return false }

func (b *ssdBackend) Provision(req ProvisionReq) (int64, error) {
	node := b.env.Cluster.Nodes[req.Node]
	if node.SSD.Total() == 0 {
		return 0, nil
	}
	p := int64(req.ProcsOnNode)
	if p < 1 {
		p = 1
	}
	want := node.SSD.Free() / p
	if fixed := b.env.Cfg.logBytes(meta.TierLocalSSD, 0); fixed > 0 {
		want = fixed
	}
	if free := node.SSD.Free(); want > free {
		want = free
	}
	want -= want % b.env.Cfg.ChunkSize
	if want > 0 && node.SSD.Alloc(want) {
		return want, nil
	}
	return 0, nil
}

func (b *ssdBackend) Open(OpenSpec) (Device, error) { return ssdDevice{b.env}, nil }

func (b *ssdBackend) FlushLeg(node int, serverMemPath []*sim.Resource) []*sim.Resource {
	if ssd := b.env.Cluster.Nodes[node].SSDBW; ssd != nil {
		return []*sim.Resource{ssd}
	}
	return nil
}

type ssdDevice struct{ env *Env }

func (d ssdDevice) Write(p *sim.Proc, op *WriteOp) error {
	sp := d.env.Trace.Begin(p, Cat(meta.TierLocalSSD), "write-op")
	path := []*sim.Resource{op.ClientMemPort, op.ServerMemPort}
	if ssd := d.env.Cluster.Nodes[op.Node].SSDBW; ssd != nil {
		path = append(path, ssd)
	}
	p.Transfer(float64(op.Size), path...)
	sp.End(p.Now())
	return nil
}

func (d ssdDevice) Read(p *sim.Proc, op *ReadOp) (Locality, error) {
	sp := d.env.Trace.Begin(p, Cat(meta.TierLocalSSD), "read-op")
	loc, err := nodeLocalRead(d.env, p, op)
	sp.End(p.Now())
	return loc, err
}

// ---------------------------------------------------------------------------
// Burst buffer: the shared DataWarp-style allocation.

type bbBackend struct {
	env     *Env
	readAgg *sim.Resource // aggregate BB read leg for flush pipelines
}

func newBB(env *Env) (Backend, error) {
	if env.BB == nil {
		// No burst-buffer allocation: the tier is unavailable (the
		// paper's UniviStor/DRAM mode runs without one).
		return nil, nil
	}
	return &bbBackend{
		env:     env,
		readAgg: sim.NewResource("bb-read-agg", env.BB.AggregateBW()),
	}, nil
}

func (b *bbBackend) Tier() meta.Tier { return meta.TierBB }
func (b *bbBackend) Shared() bool    { return true }
func (b *bbBackend) Volatile() bool  { return false }
func (b *bbBackend) Durable() bool   { return false }

func (b *bbBackend) Provision(req ProvisionReq) (int64, error) {
	p := int64(req.ProcsGlobal)
	if p < 1 {
		p = 1
	}
	want := b.env.Cfg.logBytes(meta.TierBB, b.env.Cfg.BBLogBytes)
	if want <= 0 {
		want = int64(float64(b.env.BB.FreeBytes()) * bbLogFraction / float64(p))
	}
	if free := b.env.BB.FreeBytes() / p; want > free {
		want = free
	}
	want -= want % b.env.Cfg.ChunkSize
	got := b.reserve(want)
	got -= got % b.env.Cfg.ChunkSize
	return got, nil
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

func (b *bbBackend) Open(spec OpenSpec) (Device, error) {
	if spec.Capacity <= 0 {
		return nil, nil
	}
	// The log's space was reserved from the BB pool by Provision; the
	// file itself must not double-charge it.
	f := b.env.BB.CreateReserved(fmt.Sprintf("uvlog/%d/%d", spec.FID, spec.Owner), 1)
	return sharedDevice{f: f, env: b.env, cat: Cat(meta.TierBB)}, nil
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
func (b *pfsBackend) Volatile() bool  { return false }
func (b *pfsBackend) Durable() bool   { return true }

func (b *pfsBackend) Provision(ProvisionReq) (int64, error) {
	return 0, nil // unbounded terminal: the spill log grows on demand
}

func (b *pfsBackend) Open(spec OpenSpec) (Device, error) {
	return &pfsDevice{env: b.env, fid: spec.FID, owner: spec.Owner}, nil
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

// spill lazily creates the per-process PFS log for spilled segments.
func (d *pfsDevice) spill() (*lustre.File, error) {
	if d.file != nil {
		return d.file, nil
	}
	count := 4
	if n := d.env.PFS.OSTCount(); count > n {
		count = n
	}
	f, err := d.env.PFS.Create(
		fmt.Sprintf("uvspill/%d/%d", d.fid, d.owner),
		lustre.StripeSpec{Size: 1 << 20, Count: count, StartOST: lustre.AutoStart}, 1)
	if err != nil {
		return nil, err
	}
	d.file = f
	return f, nil
}

func (d *pfsDevice) Write(p *sim.Proc, op *WriteOp) error {
	f, err := d.spill()
	if err != nil {
		return err
	}
	sp := d.env.Trace.Begin(p, Cat(meta.TierPFS), "write-op")
	err = f.Write(p, op.Node, op.Addr, op.Size, op.ServerMemPort)
	sp.End(p.Now())
	return err
}

func (d *pfsDevice) Read(p *sim.Proc, op *ReadOp) (Locality, error) {
	if d.file == nil {
		return Shared, fmt.Errorf("tier: proc %d has no PFS spill log", d.owner)
	}
	sp := d.env.Trace.Begin(p, Cat(meta.TierPFS), "read-op")
	d.file.Read(p, op.ReaderNode, op.Addr, op.Size, readExtras(op)...)
	sp.End(p.Now())
	return Shared, nil
}
