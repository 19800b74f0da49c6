// Package tier unifies the storage layers behind a pluggable Backend
// interface: each tier (DRAM, local SSD, burst buffer, object store, PFS)
// is an adapter that provisions per-process log capacity and moves bytes
// against the simulated resources, so the core write/read/flush/placement
// paths iterate an ordered Chain instead of switching on meta.Tier
// constants. The chain has one order, the spill order (numeric tier
// order), whatever order the configuration lists the tiers in. Devices only
// move bytes; core records the per-tier trace spans around them.
//
// Adding a storage layer is one table entry, not a cross-cutting edit:
// implement Backend, add its constructor to the factories table, and list
// the tier in Config.CacheTiers. See objstore.go for a complete example.
package tier

import (
	"fmt"

	"univistor/internal/bb"
	"univistor/internal/lustre"
	"univistor/internal/meta"
	"univistor/internal/sim"
	"univistor/internal/topology"
	"univistor/internal/trace"
)

// tierCats caches the per-tier trace categories so the traced device
// calls never build the string.
var tierCats = func() [meta.NumTiers]trace.Category {
	var out [meta.NumTiers]trace.Category
	for i := range out {
		out[i] = trace.TierCategory(meta.Tier(i).String())
	}
	return out
}()

// Cat returns the trace category of a tier ("tier:DRAM", "tier:BB", …).
func Cat(t meta.Tier) trace.Category { return tierCats[t] }

// Locality classifies where a read was served from, so the caller can
// account it without knowing the tier.
type Locality int

const (
	// Local: the segment lived on the reader's own node's private tier.
	Local Locality = iota
	// Remote: a remote node's private tier — one server round-trip.
	Remote
	// Shared: a globally visible device (BB, object store, PFS).
	Shared
)

// Params is the tier-relevant slice of the system configuration. New tiers
// size their logs through LogBytes or hold their own defaults — they must
// not require new core config fields.
type Params struct {
	// ChunkSize is the log-chunk granularity; provisioned capacities are
	// rounded down to multiples of it.
	ChunkSize int64

	// LogBytes, where positive, fixes a tier's per-process log size
	// instead of its c/p share of the pool.
	LogBytes [meta.NumTiers]int64
}

// logShare sizes one process's log on tier t by the paper's c/p rule
// (§II-B1): LogBytes[t] when set, else frac of the pool's free bytes split
// over procs processes. The size is capped at the free bytes (at the
// per-process share of them with perProcCap) and rounded down to whole
// chunks.
func (c Params) logShare(t meta.Tier, free int64, frac float64, procs int, perProcCap bool) int64 {
	p := max(int64(procs), 1)
	want := c.LogBytes[t]
	if want <= 0 {
		want = int64(float64(free) * frac / float64(p))
	}
	limit := free
	if perProcCap {
		limit = free / p
	}
	want = min(want, limit) // shrink rather than fail; the log spills sooner
	return want - want%c.ChunkSize
}

// provision reserves one process's logShare from a capacity pool; 0 when
// the share is empty or the pool cannot grant it.
func (c Params) provision(pool *topology.Capacity, t meta.Tier, frac float64, procs int) int64 {
	want := c.logShare(t, pool.Free(), frac, procs, false)
	if want > 0 && pool.Alloc(want) {
		return want
	}
	return 0
}

// Env is everything a backend constructor may draw on: the cluster's sim
// resources and the shared device models.
type Env struct {
	Cluster *topology.Cluster
	BB      *bb.System // nil when the job has no burst-buffer allocation
	PFS     *lustre.FS
	Cfg     Params
}

// OpenReq asks a backend for one process's log: its capacity and the
// device binding it.
type OpenReq struct {
	FID         int64 // logical file id (namespacing for device files)
	Owner       int   // global client id
	Node        int   // the process's compute node (for node-local pools)
	ProcsOnNode int   // processes sharing the node's local pools (p in c/p)
	ProcsGlobal int   // processes sharing the global pools
}

// WriteOp is one log append's data-plane context: the resources between
// the writing client and its co-located server.
type WriteOp struct {
	Node          int   // writing client's compute node
	Addr          int64 // physical (log-local) address
	Size          int64
	ClientMemPort *sim.Resource   // writing client's core memory port
	ServerMemPort *sim.Resource   // co-located server's core memory port
	ServerMemPath []*sim.Resource // server's core port + NUMA memory port
}

// ReadOp is one segment retrieval's data-plane context. Backends pick the
// path from the producer/reader geometry and the location-aware flag.
type ReadOp struct {
	Addr int64 // physical (log-local) address
	Size int64

	ReaderNode   int
	ProducerNode int

	// LocationAware: with the §II-B4 read service, local and shared reads
	// skip the reader's co-located server; without it, every byte funnels
	// through that server.
	LocationAware bool

	ReaderMemPort      *sim.Resource   // reading process's core memory port
	ReaderMemPath      []*sim.Resource // reader's core + NUMA memory ports
	ReaderSrvMemPort   *sim.Resource   // reader's co-located server port
	ReaderSrvMemPath   []*sim.Resource // reader's co-located server memory path
	ProducerSrvMemPath []*sim.Resource // producer-side server's memory path
}

// Device is one process's log backing on a tier: the object that moves
// bytes for that log against the sim resources.
type Device interface {
	// Write charges the data-plane cost of appending at op.Addr.
	Write(p *sim.Proc, op WriteOp) error
	// Read charges the cost of retrieving [op.Addr, op.Addr+op.Size) and
	// reports where the bytes came from.
	Read(p *sim.Proc, op ReadOp) (Locality, error)
}

// Backend is one storage layer: capacity accounting, device binding, and
// the visibility the placement and replication paths dispatch on. The PFS
// terminal is the one durable layer; the chain keeps it out of Caches.
type Backend interface {
	// Tier is the layer's position in the spill order.
	Tier() meta.Tier
	// Shared reports global visibility: any node reads the device
	// directly, and segments survive their producer node's failure. A
	// private (node-local) layer's segments die with their node.
	Shared() bool
	// Open reserves one process's log capacity (chunk-aligned) from the
	// backend's pool, shrinking to what is available, and binds the log
	// to a Device. A capacity of 0 means the process gets no log on this
	// tier; a nil Device means the tier holds nothing for this process
	// and will never be dispatched to.
	Open(req OpenReq) (Device, int64)
	// FlushLeg returns the read-side resources of the server flush
	// pipeline for cached bytes on this tier (nil for the terminal).
	FlushLeg(node int, serverMemPath []*sim.Resource) []*sim.Resource
}

// factories builds every cache tier's backend, indexed by tier. A nil
// backend means the tier is unavailable on this cluster (e.g. BB caching
// without a burst-buffer allocation) and the chain drops it rather than
// failing. The PFS terminal has no entry: Build always appends it, and it
// is never a cache tier.
var factories = [meta.NumTiers]func(env *Env) Backend{
	meta.TierDRAM:     newDRAM,
	meta.TierLocalSSD: newLocalSSD,
	meta.TierBB:       newBB,
	meta.TierObject:   newObjStore,
}

// Chain is a deployment's storage hierarchy: the configured cache tiers
// that could be built on this cluster plus the durable terminal, in spill
// (numeric tier) order.
type Chain struct {
	backends []Backend
	byTier   [meta.NumTiers]Backend
	dropped  []meta.Tier
}

// Build constructs the chain for the configured cache tiers. Tiers whose
// backend is unavailable are dropped (recorded, not fatal); the PFS
// terminal is always appended. A tier with no factory (out of range, or
// the terminal itself) or listed twice is an error.
func Build(cacheTiers []meta.Tier, env *Env) (*Chain, error) {
	ch := &Chain{}
	for _, t := range cacheTiers {
		if t < 0 || int(t) >= meta.NumTiers || factories[t] == nil {
			return nil, fmt.Errorf("tier: %s is not a cache tier", t)
		}
		if ch.byTier[t] != nil {
			return nil, fmt.Errorf("tier: duplicate backend for %s", t)
		}
		b := factories[t](env)
		if b == nil {
			ch.dropped = append(ch.dropped, t)
			continue
		}
		ch.byTier[t] = b
	}
	ch.byTier[meta.TierPFS] = newPFS(env) // the last tier: terminal last
	for _, b := range ch.byTier {
		if b != nil {
			ch.backends = append(ch.backends, b)
		}
	}
	return ch, nil
}

// Backends returns the chain in spill order, terminal last.
func (ch *Chain) Backends() []Backend { return ch.backends }

// Backend returns the backend serving the tier, or nil when the chain has
// none (the tier was dropped or never configured).
func (ch *Chain) Backend(t meta.Tier) Backend {
	if t < 0 || int(t) >= meta.NumTiers {
		return nil
	}
	return ch.byTier[t]
}

// Caches returns the surviving cache backends in spill order: the chain
// without its terminal.
func (ch *Chain) Caches() []Backend { return ch.backends[:len(ch.backends)-1] }

// CacheTiers returns the surviving cache tiers in spill order.
func (ch *Chain) CacheTiers() []meta.Tier {
	var out []meta.Tier
	for _, b := range ch.Caches() {
		out = append(out, b.Tier())
	}
	return out
}

// Dropped returns the configured cache tiers that were unavailable on this
// cluster, in configuration order.
func (ch *Chain) Dropped() []meta.Tier { return ch.dropped }
