package core

// Invariant checking for the chaos harness: a sweep over the system's
// bookkeeping that must hold at every quiescent instant, fault or no fault.
// Each violated invariant yields one human-readable line; an empty result
// means the state is internally consistent. The sweep is read-only and
// deterministic (every map iteration is sorted), so two runs with the same
// seed produce byte-identical violation lists.

import (
	"cmp"
	"fmt"
	"slices"

	"univistor/internal/meta"
)

// CheckInvariants sweeps every invariant class and returns the violations,
// sorted within each class by file/node/proc for deterministic output:
//
//  1. Pool conservation — every capacity pool (per-node DRAM/SSD, the BB
//     allocation) has 0 ≤ used ≤ total, and the log reservations handed out
//     to client processes never exceed what their pool recorded as used.
//  2. Log conservation — each per-process log's live bytes, append cursor,
//     and chunk accounting stay within its fixed capacity, and per file the
//     sum of log capacities on a tier equals the reservations taken for it.
//  3. Metadata coverage — every byte ever written resolves through the
//     metadata ring to exactly one segment with a decodable virtual address:
//     no overlaps, no dangling producers, no lost records.
//  4. Stats coherence — the public counters agree with independent ledgers
//     (bytes written per file, bytes served to readers, pending-flush sums).
//  5. Flow conservation — the sim engine's allocated rates fit inside every
//     resource's capacity (delegated to Engine.CheckFlowConservation).
//  6. CAS conservation (dedup runs only) — sum of block refcounts × block
//     size equals the live logical extent bytes the file block maps hold, no
//     block is freed while referenced, every byte ever interned is live,
//     dead, or freed, and no orphan dead block outlives the collector.
func (sys *System) CheckInvariants() []string {
	var out []string
	out = append(out, sys.checkPools()...)
	out = append(out, sys.checkLogs()...)
	out = append(out, sys.checkMetadataCoverage()...)
	out = append(out, sys.checkStatsCoherence()...)
	out = append(out, sys.checkCAS()...)
	if sys.plane != nil {
		for _, v := range sys.plane.CheckInvariants() {
			out = append(out, "metaplane "+v)
		}
	}
	out = append(out, sys.W.E.CheckFlowConservation(1e-6)...)
	return out
}

// byKey returns m's values in ascending key order: the file registry in
// name order, a file's producer handles in global-client order.
func byKey[K cmp.Ordered, V any](m map[K]V) []V {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]V, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

func (sys *System) checkPools() []string {
	var out []string
	pool := func(name string, used, total int64) {
		if used < 0 || used > total {
			out = append(out, fmt.Sprintf("pool %s: used %d outside [0, %d]", name, used, total))
		}
	}
	cl := sys.W.Cluster
	for n, node := range cl.Nodes {
		pool(fmt.Sprintf("node%d/DRAM", n), node.DRAM.Used(), node.DRAM.Total())
		pool(fmt.Sprintf("node%d/SSD", n), node.SSD.Used(), node.SSD.Total())
	}
	var bbUsed int64
	for i, b := range cl.BB {
		pool(fmt.Sprintf("bb%d", i), b.Cap.Used(), b.Cap.Total())
		bbUsed += b.Cap.Used()
	}

	// Reservation coverage: everything handed to client logs must be
	// charged against its pool. (The pool may hold more — other consumers —
	// but never less.)
	perNode := map[meta.Tier][]int64{
		meta.TierDRAM:     make([]int64, len(cl.Nodes)),
		meta.TierLocalSSD: make([]int64, len(cl.Nodes)),
	}
	var bbReserved int64
	for _, fs := range byKey(sys.files) {
		for _, r := range fs.reservations {
			switch {
			case r.node >= 0 && perNode[r.tier] != nil && r.node < len(cl.Nodes):
				perNode[r.tier][r.node] += r.bytes
			case r.tier == meta.TierBB:
				bbReserved += r.bytes
			}
		}
	}
	for n, node := range cl.Nodes {
		if got := perNode[meta.TierDRAM][n]; got > node.DRAM.Used() {
			out = append(out, fmt.Sprintf(
				"pool node%d/DRAM: %d bytes reserved by logs but only %d allocated from the pool",
				n, got, node.DRAM.Used()))
		}
		if got := perNode[meta.TierLocalSSD][n]; got > node.SSD.Used() {
			out = append(out, fmt.Sprintf(
				"pool node%d/SSD: %d bytes reserved by logs but only %d allocated from the pool",
				n, got, node.SSD.Used()))
		}
	}
	if bbReserved > bbUsed {
		out = append(out, fmt.Sprintf(
			"pool BB: %d bytes reserved by logs but only %d allocated from the pool",
			bbReserved, bbUsed))
	}
	return out
}

func (sys *System) checkLogs() []string {
	var out []string
	for _, fs := range byKey(sys.files) {
		resv := map[meta.Tier]int64{}
		for _, r := range fs.reservations {
			resv[r.tier] += r.bytes
		}
		capByTier := map[meta.Tier]int64{}
		for _, pf := range byKey(fs.procFiles) {
			for _, bk := range sys.chain.Caches() {
				l := pf.ls.Log(bk.Tier())
				capByTier[bk.Tier()] += l.Capacity()
				tag := fmt.Sprintf("file %q proc %d tier %s", fs.name, l.Owner(), bk.Tier())
				if l.Used() < 0 || l.Used() > l.Capacity() {
					out = append(out, fmt.Sprintf("log %s: live bytes %d outside [0, %d]",
						tag, l.Used(), l.Capacity()))
				}
				if l.Cursor() < 0 || l.Cursor() > l.Capacity() {
					out = append(out, fmt.Sprintf("log %s: cursor %d outside [0, %d]",
						tag, l.Cursor(), l.Capacity()))
				}
				if chunks := int64(l.Slots()+l.FreeChunks()) * l.ChunkSize(); chunks > l.Capacity() {
					out = append(out, fmt.Sprintf(
						"log %s: %d chunk bytes materialized beyond capacity %d",
						tag, chunks, l.Capacity()))
				}
			}
		}
		// Every provisioned byte was recorded as a reservation and vice
		// versa: the release path (none yet — logs live for the run) and the
		// provision path cannot drift apart unnoticed.
		tiers := make([]meta.Tier, 0, len(capByTier))
		for t := range capByTier {
			tiers = append(tiers, t)
		}
		slices.Sort(tiers)
		for _, t := range tiers {
			if capByTier[t] != resv[t] {
				out = append(out, fmt.Sprintf(
					"file %q tier %s: log capacity %d != reserved %d",
					fs.name, t, capByTier[t], resv[t]))
			}
		}
	}
	return out
}

func (sys *System) checkMetadataCoverage() []string {
	var out []string
	for _, fs := range byKey(sys.files) {
		if fs.logicalSize == 0 || len(fs.procFiles) == 0 {
			continue // never written (read-only registry entries have no records)
		}
		// Interior gaps are legal — ranks write strided blocks, so the file
		// is sparse until the write phase completes. What must hold at every
		// instant is that the non-overlapping bytes the ring resolves equal
		// the bytes the write path recorded net of exact-key rewrites: a
		// record lost anywhere (interior or tail) breaks the equality.
		recs := sys.metaCoveringFree(fs.fid, 0, fs.logicalSize)
		cur := int64(0)
		covered := int64(0)
		for _, rec := range recs {
			if rec.Size <= 0 {
				out = append(out, fmt.Sprintf("meta %q: record at %d has size %d",
					fs.name, rec.Offset, rec.Size))
				continue
			}
			if rec.Offset < cur {
				out = append(out, fmt.Sprintf(
					"meta %q: record [%d, %d) overlaps previous coverage up to %d",
					fs.name, rec.Offset, rec.Offset+rec.Size, cur))
			}
			producer := fs.procFiles[rec.Proc]
			if producer == nil {
				out = append(out, fmt.Sprintf("meta %q: record at %d names unknown producer %d",
					fs.name, rec.Offset, rec.Proc))
			} else if _, _, err := producer.ls.Space().Decode(rec.VA); err != nil {
				out = append(out, fmt.Sprintf("meta %q: record at %d has undecodable VA: %v",
					fs.name, rec.Offset, err))
			}
			if end := rec.Offset + rec.Size; end > cur {
				if from := max(rec.Offset, cur); end > from {
					covered += end - from
				}
				cur = end
			}
		}
		if live := fs.totalWritten - fs.overwritten; covered != live {
			out = append(out, fmt.Sprintf(
				"meta %q: ring resolves %d bytes but %d live bytes were written — records lost",
				fs.name, covered, live))
		}
		// A tail gap is a lost record — unless a range delete removed the
		// records that reached the logical size (a deleted tail keeps the
		// logical size, like a punched hole; anything under it that was
		// never written was never resolvable to begin with).
		if cur < fs.logicalSize && fs.deletedEnd < fs.logicalSize {
			out = append(out, fmt.Sprintf("meta %q: tail gap [%d, %d) — bytes unresolvable",
				fs.name, cur, fs.logicalSize))
		}
		if cur > fs.logicalSize {
			out = append(out, fmt.Sprintf("meta %q: records extend to %d beyond logical size %d",
				fs.name, cur, fs.logicalSize))
		}
	}
	return out
}

func (sys *System) checkStatsCoherence() []string {
	var out []string
	var written int64
	for _, fs := range byKey(sys.files) {
		written += fs.totalWritten
		var cached int64
		for _, tb := range fs.cached {
			cached += tb.total()
		}
		if cached != fs.cachedTotal {
			out = append(out, fmt.Sprintf("stats %q: cachedTotal %d != per-server sum %d",
				fs.name, fs.cachedTotal, cached))
		}
	}
	if got := sys.stats.TotalBytesWritten(); got != written {
		out = append(out, fmt.Sprintf(
			"stats: BytesWritten total %d != per-file written ledger %d", got, written))
	}
	if sys.Cfg.LocationAwareRead {
		// With the location-aware service every served byte lands in exactly
		// one locality counter; without it, local reads deliberately count
		// nowhere, so the counters may only undershoot the ledger.
		if got := sys.stats.TotalBytesRead(); got != sys.servedReadBytes {
			out = append(out, fmt.Sprintf(
				"stats: read counters total %d != served-bytes ledger %d",
				got, sys.servedReadBytes))
		}
	} else if got := sys.stats.TotalBytesRead(); got > sys.servedReadBytes {
		out = append(out, fmt.Sprintf(
			"stats: read counters total %d exceed served-bytes ledger %d",
			got, sys.servedReadBytes))
	}
	return out
}
