// Package core implements UniviStor itself: the server runtime deployed
// across the compute nodes of a job, the client library that redirects
// MPI-IO traffic into the unified storage space, and the services of
// paper §II — distributed and hierarchical data placement (DHP), virtual
// addressing, the distributed metadata service, the location-aware read
// service, server-side asynchronous flush with adaptive striping, and
// optional workflow coordination.
package core

import (
	"fmt"
	"math"
	"slices"

	"univistor/internal/meta"
	"univistor/internal/metaplane"
	"univistor/internal/striping"
)

// Costs of the modeled server runtime that no deployment varies.
const (
	// ShmLatency is the client↔co-located-server shared-memory handoff
	// latency per operation.
	ShmLatency = 2e-6

	// openOpTime is the server time to serve one file open/close request —
	// attribute handling, permission checks, registry updates — the
	// operation COC collapses from all-ranks-to-one into root-plus-
	// broadcast. Much heavier than a record op.
	openOpTime = 8e-5

	// stripeAllLockEff is the extent-lock efficiency of the shared flush
	// file under the conventional stripe-all layout (the adaptive and Eq. 5
	// flushes write stripe-aligned disjoint ranges and pay no lock
	// penalty).
	stripeAllLockEff = 0.5
)

// Config selects UniviStor's deployment shape and optimizations. Every
// optimization the paper evaluates (IA, COC, ADPT, location-aware reads,
// workflow management) has an independent switch so the ablation figures
// can be regenerated.
type Config struct {
	// ServersPerNode is the number of UniviStor server processes per
	// compute node (paper default 1; the evaluation uses 2 to exploit both
	// NUMA sockets).
	ServersPerNode int

	// CacheTiers lists the tiers UniviStor caches writes on, e.g.
	// {TierDRAM, TierBB}. The order does not matter: writes always fill
	// the tiers fastest first (numeric tier order). The PFS is always the
	// final spill destination and never needs listing.
	CacheTiers []meta.Tier

	// DRAMLogBytes, when positive, fixes each per-process DRAM log's size
	// instead of the c/p default — the paper's "size of the file is
	// configurable by applications". Multi-file workloads (one file per
	// time step) set it to the per-step data size so every step's log is
	// equally sized until the pool runs dry.
	DRAMLogBytes int64

	// BBLogBytes is the analogous override for the BB-tier logs.
	BBLogBytes int64

	// TierLogBytes, when a tier maps to a positive value, fixes that
	// tier's per-process log size — the generic override newer tiers (e.g.
	// the object store) use instead of dedicated fields. For DRAM and BB it
	// excludes the field above: at most one of the two may be set. Keys
	// must be cache tiers: the PFS terminal is never provisioned.
	TierLogBytes map[meta.Tier]int64

	// ChunkSize is the log-chunk granularity in bytes.
	ChunkSize int64

	// MetaRangeSize is the offset-range granularity of the distributed
	// metadata partitioner. It must be at least as large as the largest
	// single write (segment), or lookups may miss straddling segments.
	MetaRangeSize int64

	// MetaOpTime is the server CPU time to serve one metadata operation
	// (segment record insert/lookup).
	MetaOpTime float64

	// CollectiveOpenClose enables the COC optimization (§II-F): only the
	// root performs the open/close metadata operation and broadcasts the
	// result; disabled, every rank contacts the file's home server.
	CollectiveOpenClose bool

	// InterferenceAware enables IA (§II-C): NUMA- and state-aware
	// placement of the application's ranks, and client migration while
	// servers flush. bench.NewStack places ranks by it.
	InterferenceAware bool

	// FlushStriping is the server-side flush layout, one of
	// striping.Policies: "adaptive" (Eqs. 2–6, ADPT), "eq5" (one OST per
	// server, round-robin, no dummy-server correction — the straggler
	// baseline) or "stripe-all" (the conventional layout).
	FlushStriping string

	// LocationAwareRead enables the direct local/BB read paths of §II-B4;
	// disabled, every read hops through the co-located server and remote
	// data is relayed server-to-server.
	LocationAwareRead bool

	// FlushOnClose triggers the asynchronous server-side flush when a
	// write-mode file closes. Applications without persistence needs run
	// with it off.
	FlushOnClose bool

	// Workflow enables the §II-E state-file coordination, piggybacked on
	// collective open/close (ENABLE_WORKFLOW in the paper).
	Workflow bool

	// CentralMetadata forces all metadata onto server 0 — the naïve
	// baseline of §II-B3, kept for the ablation benchmark.
	CentralMetadata bool

	// MetaShards, when positive, replaces the legacy single logical
	// metadata ring with the sharded, replicated metadata plane
	// (internal/metaplane): MetaShards replication groups over a
	// consistent-hash keyspace. Zero (the default) keeps the ring — the
	// baseline every paper figure is generated against.
	MetaShards int

	// MetaReplicas is the replication factor of each metadata shard
	// (leader + MetaReplicas-1 followers). Meaningful only with
	// MetaShards > 0; zero defaults to 1 (unreplicated shards).
	MetaReplicas int

	// MetaFollowerReads lets metadata Stat/Lookup be served by a follower
	// holding a time-bounded lease from its shard leader, load-balancing
	// hot stat storms across the replica set. Reads are never staler than
	// the lease on the virtual clock; leases are revoked on leader crash
	// and frozen during a split arc's transfer window. Off (the default)
	// keeps every read on the leader — the byte-identical baseline.
	// Requires MetaShards > 0.
	MetaFollowerReads bool

	// ReplicateVolatile mirrors DRAM/local-SSD segments to the buddy node
	// at write time, so node failure does not lose unflushed data — the
	// resilience extension from the paper's future work (§V).
	ReplicateVolatile bool

	// Dedup enables the content-addressed dedup block layer on the flush
	// path: flushed file images are chunked into fixed-size blocks,
	// fingerprinted, and deduplicated across files, ranks, and timesteps;
	// only blocks without an existing copy move to the PFS. Overwrites and
	// deletes decrement block refcounts, and a background GC flow reclaims
	// unreferenced blocks. Off (the default) keeps the legacy flush path
	// byte-identical.
	Dedup bool

	// DedupBlockBytes is the CAS chunking granularity (default 1 MiB).
	// Segment-aligned workloads dedup best when their write size is a
	// multiple of the block size.
	DedupBlockBytes int64

	// DedupGCBatchBytes caps the bytes one GC flow reclaims per collection
	// batch (default 256 MiB); each batch is a real PFS flow competing in
	// the max-min allocator.
	DedupGCBatchBytes int64

	// ProactivePlacement promotes segments on slow tiers into the
	// producer's DRAM log once they have been read PromoteAfterReads
	// times — the usage-pattern-driven placement extension of §V.
	ProactivePlacement bool

	// PromoteAfterReads is the heat threshold for promotion (default 2); it
	// must be at least 1 when ProactivePlacement is on.
	PromoteAfterReads int
}

// DefaultConfig returns the configuration used throughout the evaluation:
// 2 servers/node, DRAM+BB caching, all optimizations on.
func DefaultConfig() Config {
	return Config{
		ServersPerNode:      2,
		CacheTiers:          []meta.Tier{meta.TierDRAM, meta.TierBB},
		ChunkSize:           8 << 20,
		MetaRangeSize:       64 << 20,
		MetaOpTime:          3e-6,
		CollectiveOpenClose: true,
		InterferenceAware:   true,
		FlushStriping:       "adaptive",
		LocationAwareRead:   true,
		FlushOnClose:        true,
		Workflow:            false,
		ReplicateVolatile:   false,
		ProactivePlacement:  false,
		PromoteAfterReads:   2,
	}
}

// MetaCosts derives the metadata plane's costs from the fabric's network
// latency and MetaOpTime: a follower applies a shipped entry in half the
// leader's per-record time.
func (c Config) MetaCosts(netLatency float64) metaplane.Costs {
	return metaplane.Costs{
		NetLatency: netLatency,
		ShmLatency: ShmLatency,
		OpTime:     c.MetaOpTime,
		ApplyTime:  c.MetaOpTime / 2,
	}
}

// Validate reports a descriptive error for inconsistent configurations.
func (c Config) Validate() error {
	switch {
	case c.ServersPerNode <= 0:
		return fmt.Errorf("core: ServersPerNode must be positive, got %d", c.ServersPerNode)
	case c.ChunkSize <= 0:
		return fmt.Errorf("core: ChunkSize must be positive, got %d", c.ChunkSize)
	case c.MetaRangeSize <= 0:
		return fmt.Errorf("core: MetaRangeSize must be positive, got %d", c.MetaRangeSize)
	case !(c.MetaOpTime >= 0) || math.IsInf(c.MetaOpTime, 1): // also rejects NaN
		return fmt.Errorf("core: MetaOpTime must be finite and non-negative, got %v", c.MetaOpTime)
	case !slices.Contains(striping.Policies, c.FlushStriping):
		return fmt.Errorf("core: FlushStriping must be one of %v, got %q", striping.Policies, c.FlushStriping)
	}
	switch {
	case c.MetaShards < 0:
		return fmt.Errorf("core: MetaShards must be non-negative, got %d", c.MetaShards)
	case c.MetaReplicas < 0:
		return fmt.Errorf("core: MetaReplicas must be non-negative, got %d", c.MetaReplicas)
	case c.MetaShards > 0 && c.CentralMetadata:
		return fmt.Errorf("core: MetaShards and CentralMetadata are mutually exclusive")
	case c.MetaShards == 0 && c.MetaReplicas > 1:
		return fmt.Errorf("core: MetaReplicas requires MetaShards > 0")
	case c.MetaShards == 0 && c.MetaFollowerReads:
		return fmt.Errorf("core: MetaFollowerReads requires MetaShards > 0")
	}
	switch {
	case c.DedupBlockBytes < 0:
		return fmt.Errorf("core: DedupBlockBytes must be non-negative, got %d", c.DedupBlockBytes)
	case c.DedupGCBatchBytes < 0:
		return fmt.Errorf("core: DedupGCBatchBytes must be non-negative, got %d", c.DedupGCBatchBytes)
	case !c.Dedup && (c.DedupBlockBytes > 0 || c.DedupGCBatchBytes > 0):
		return fmt.Errorf("core: DedupBlockBytes/DedupGCBatchBytes require Dedup")
	}
	seen := map[meta.Tier]bool{}
	for _, t := range c.CacheTiers {
		if t == meta.TierPFS {
			return fmt.Errorf("core: TierPFS is the implicit final destination, not a cache tier")
		}
		if t < 0 || int(t) >= meta.NumTiers {
			return fmt.Errorf("core: cache tier %s is out of range", t)
		}
		if seen[t] {
			return fmt.Errorf("core: duplicate cache tier %s", t)
		}
		seen[t] = true
	}
	switch {
	case c.DRAMLogBytes < 0:
		return fmt.Errorf("core: DRAMLogBytes must be non-negative, got %d", c.DRAMLogBytes)
	case c.BBLogBytes < 0:
		return fmt.Errorf("core: BBLogBytes must be non-negative, got %d", c.BBLogBytes)
	case c.DRAMLogBytes > 0 && c.TierLogBytes[meta.TierDRAM] > 0:
		return fmt.Errorf("core: set DRAMLogBytes or TierLogBytes[%s], not both", meta.TierDRAM)
	case c.BBLogBytes > 0 && c.TierLogBytes[meta.TierBB] > 0:
		return fmt.Errorf("core: set BBLogBytes or TierLogBytes[%s], not both", meta.TierBB)
	case c.ProactivePlacement && c.PromoteAfterReads < 1:
		return fmt.Errorf("core: ProactivePlacement needs PromoteAfterReads >= 1, got %d", c.PromoteAfterReads)
	}
	for t, b := range c.TierLogBytes {
		switch {
		case t < 0 || int(t) >= meta.NumTiers:
			return fmt.Errorf("core: TierLogBytes key %s is out of range", t)
		case t == meta.TierPFS:
			return fmt.Errorf("core: TierLogBytes[%s]: the PFS terminal is never provisioned", t)
		case b < 0:
			return fmt.Errorf("core: TierLogBytes[%s] must be non-negative, got %d", t, b)
		}
	}
	return nil
}
