// Package tier unifies the storage layers behind a pluggable Backend
// interface: each tier (DRAM, local SSD, burst buffer, object store, PFS)
// is an adapter that knows how to provision per-process log capacity, move
// bytes against the simulated resources, and describe itself (shared,
// volatile, durable) so the core write/read/flush/placement paths can
// iterate an ordered Chain instead of switching on meta.Tier constants.
//
// Adding a storage layer is one table entry, not a cross-cutting edit:
// implement Backend, add its factory to the factories table, and list the
// tier in Config.CacheTiers. See objstore.go for a complete example.
package tier

import (
	"fmt"
	"sort"

	"univistor/internal/bb"
	"univistor/internal/lustre"
	"univistor/internal/meta"
	"univistor/internal/sim"
	"univistor/internal/topology"
	"univistor/internal/trace"
)

// tierCats caches the per-tier trace categories ("tier:DRAM", …) so hot
// device paths never build the string.
var tierCats = func() [meta.NumTiers]trace.Category {
	var out [meta.NumTiers]trace.Category
	for i := range out {
		out[i] = trace.TierCategory(meta.Tier(i).String())
	}
	return out
}()

// Cat returns the trace category of a tier ("tier:DRAM", "tier:BB", …).
// Out-of-range tiers build their fallback name on the fly.
func Cat(t meta.Tier) trace.Category {
	if t >= 0 && int(t) < meta.NumTiers {
		return tierCats[t]
	}
	return trace.TierCategory(t.String())
}

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

// The shares of a pool the per-process logs may claim in aggregate (c in
// the paper's c/p) when no fixed log size is configured: of the node's
// DRAM tier, and of the job's burst-buffer allocation.
const (
	dramLogFraction = 0.8
	bbLogFraction   = 0.9
)

// Params is the tier-relevant slice of the system configuration. Backends
// that need a knob beyond these use TierLogBytes (the generic per-tier log
// size override) or hold their own defaults — new tiers must not require
// new core config fields.
type Params struct {
	// ChunkSize is the log-chunk granularity; provisioned capacities are
	// rounded down to multiples of it.
	ChunkSize int64

	// DRAMLogBytes, when positive, fixes each per-process DRAM log's size
	// instead of the dramLogFraction share of the node pool.
	DRAMLogBytes int64

	// BBLogBytes is the burst-buffer analogue (bbLogFraction).
	BBLogBytes int64

	// TierLogBytes, when a tier maps to a positive value, fixes that
	// tier's per-process log size — the generic override future tiers use
	// instead of growing dedicated config fields.
	TierLogBytes map[meta.Tier]int64
}

// logBytes resolves the fixed log size for a tier: the generic override
// wins, then the tier's legacy dedicated field (passed by its backend).
func (p Params) logBytes(t meta.Tier, legacy int64) int64 {
	if b := p.TierLogBytes[t]; b > 0 {
		return b
	}
	return legacy
}

// Env is everything a backend factory may draw on: the cluster's sim
// resources, the shared device models, and the (possibly nil) trace
// recorder devices emit per-operation spans on.
type Env struct {
	Cluster *topology.Cluster
	BB      *bb.System // nil when the job has no burst-buffer allocation
	PFS     *lustre.FS
	Cfg     Params
	Trace   *trace.Recorder
}

// ProvisionReq asks a backend for one process's log capacity.
type ProvisionReq struct {
	// Node is the process's compute node (for node-local pools).
	Node int
	// ProcsOnNode is the number of application processes sharing the
	// node's local pools (p in the paper's c/p).
	ProcsOnNode int
	// ProcsGlobal is the number of processes sharing global pools.
	ProcsGlobal int
}

// OpenSpec binds one per-process log to a device.
type OpenSpec struct {
	FID      int64 // logical file id (namespacing for device files)
	Owner    int   // global client id
	Capacity int64 // capacity granted by Provision (0 = tier unused)
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
	Write(p *sim.Proc, op *WriteOp) error
	// Read charges the cost of retrieving [op.Addr, op.Addr+op.Size) and
	// reports where the bytes came from.
	Read(p *sim.Proc, op *ReadOp) (Locality, error)
}

// Backend is one storage layer: capacity accounting, device binding, and
// the static properties the placement and flush paths dispatch on.
type Backend interface {
	// Tier is the layer's position in the spill order.
	Tier() meta.Tier
	// Shared reports global visibility: any node reads the device
	// directly, and segments survive their producer node's failure.
	Shared() bool
	// Volatile reports that segments die with their producing node (the
	// replication trigger).
	Volatile() bool
	// Durable reports the layer is the persistent terminal: spilled
	// segments are already safe and the flush pipeline skips them.
	Durable() bool
	// Provision reserves one process's log capacity (chunk-aligned) from
	// the backend's pool, shrinking to what is available; 0 means the
	// process gets no log on this tier.
	Provision(req ProvisionReq) (int64, error)
	// Open binds a per-process log of the granted capacity to a Device.
	// A nil Device (with nil error) means the tier holds nothing for this
	// process and will never be dispatched to.
	Open(spec OpenSpec) (Device, error)
	// FlushLeg returns the read-side resources of the server flush
	// pipeline for cached bytes on this tier (nil for durable tiers).
	FlushLeg(node int, serverMemPath []*sim.Resource) []*sim.Resource
}

// Factory builds a tier's backend for a deployment. Returning (nil, nil)
// means the tier is unavailable on this cluster (e.g. BB caching without a
// burst-buffer allocation) and the chain drops it rather than failing.
type Factory func(env *Env) (Backend, error)

// factories builds every cache tier's backend, indexed by tier. The PFS
// terminal has no entry: Build always appends it, and it is never a cache
// tier.
var factories = [meta.NumTiers]Factory{
	meta.TierDRAM:     newDRAM,
	meta.TierLocalSSD: newLocalSSD,
	meta.TierBB:       newBB,
	meta.TierObject:   newObjStore,
}

// Chain is a deployment's ordered storage hierarchy: the configured cache
// tiers that could be built on this cluster plus the durable terminal,
// sorted in spill (numeric tier) order.
type Chain struct {
	backends   []Backend
	byTier     [meta.NumTiers]Backend
	cacheTiers []meta.Tier // surviving cache tiers, configuration order
	dropped    []meta.Tier
}

// Build constructs the chain for the configured cache tiers. Tiers whose
// factory reports unavailability are dropped (recorded, not fatal); the
// PFS terminal is always appended. A tier with no factory (out of range,
// or the terminal itself) is an error.
func Build(cacheTiers []meta.Tier, env *Env) (*Chain, error) {
	ch := &Chain{}
	for _, t := range cacheTiers {
		if t < 0 || int(t) >= meta.NumTiers || factories[t] == nil {
			return nil, fmt.Errorf("tier: %s is not a cache tier", t)
		}
		b, err := factories[t](env)
		if err != nil {
			return nil, fmt.Errorf("tier: building %s backend: %w", t, err)
		}
		if b == nil {
			ch.dropped = append(ch.dropped, t)
			continue
		}
		if ch.byTier[b.Tier()] != nil {
			return nil, fmt.Errorf("tier: duplicate backend for %s", b.Tier())
		}
		ch.byTier[b.Tier()] = b
		ch.backends = append(ch.backends, b)
		ch.cacheTiers = append(ch.cacheTiers, t)
	}
	term := newPFS(env)
	ch.byTier[term.Tier()] = term
	ch.backends = append(ch.backends, term)
	sort.Slice(ch.backends, func(i, j int) bool {
		return ch.backends[i].Tier() < ch.backends[j].Tier()
	})
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

// Terminal returns the durable final backend (always present).
func (ch *Chain) Terminal() Backend { return ch.backends[len(ch.backends)-1] }

// Limit returns the slowest tier of the chain — the spill limit the DHP
// append walk may fall through to.
func (ch *Chain) Limit() meta.Tier { return ch.Terminal().Tier() }

// FastestCache returns the first surviving cache tier in configuration
// order; ok is false when the chain caches nothing (writes go straight to
// the terminal and nothing counts as a spill).
func (ch *Chain) FastestCache() (meta.Tier, bool) {
	if len(ch.cacheTiers) == 0 {
		return 0, false
	}
	return ch.cacheTiers[0], true
}

// CacheTiers returns the surviving cache tiers in configuration order.
func (ch *Chain) CacheTiers() []meta.Tier { return ch.cacheTiers }

// Dropped returns the configured cache tiers that were unavailable on this
// cluster, in configuration order.
func (ch *Chain) Dropped() []meta.Tier { return ch.dropped }
