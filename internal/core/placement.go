package core

// Proactive, usage-pattern-driven data placement — the second future-work
// direction of §V. The read service counts accesses per segment; once a
// segment on a slow tier (BB, PFS) has been read PromoteAfterReads times,
// it is migrated into its producer's DRAM log, its metadata record is
// re-pointed at the new virtual address, and the old log chunks are
// returned to the free-chunk stack.

import (
	"fmt"
	"math"

	"univistor/internal/meta"
	"univistor/internal/mpi"
	"univistor/internal/sim"
	"univistor/internal/tier"
	"univistor/internal/trace"
)

// trackHeat records one access to the segment and promotes it when it
// crosses the threshold. Runs in the reading process's context.
func (cf *ClientFile) trackHeat(p *sim.Proc, rec meta.Record, producer *ClientFile, t meta.Tier) {
	sys := cf.c.sys
	fs := cf.fs
	if fs.heat == nil {
		fs.heat = map[int64]int{}
	}
	fs.heat[rec.Offset]++
	if bk := sys.chain.Backend(t); bk == nil || !bk.Shared() {
		return // already on a fast private tier
	}
	if fs.heat[rec.Offset] != sys.Cfg.PromoteAfterReads {
		return
	}
	sys.promoteSegment(p, fs, rec, producer)
}

// promoteSegment migrates one hot segment into the producer's DRAM log.
// Best effort: if the log has no room the segment stays where it is.
func (sys *System) promoteSegment(p *sim.Proc, fs *fileState, rec meta.Record, producer *ClientFile) {
	dlog := producer.ls.Log(meta.TierDRAM)
	if dlog.Capacity() == 0 || dlog.Free() < rec.Size {
		return
	}
	oldTier, oldAddr, err := producer.ls.Space().Decode(rec.VA)
	if err != nil {
		return
	}
	if bk := sys.chain.Backend(oldTier); bk == nil || !bk.Shared() {
		return // only segments on shared slow tiers are promoted
	}
	newAddr, ok := dlog.Append(rec.Size)
	if !ok {
		return
	}
	newVA, err := producer.ls.Space().Encode(meta.TierDRAM, newAddr)
	if err != nil {
		return
	}

	sp := sys.W.Trace.Begin(p, trace.CatPromote, "promote-segment")
	defer func() { sp.End(p.Now()) }()

	// Data motion: source tier → producer node's DRAM, through the
	// producer's co-located server. A segment whose device has nothing to
	// read (e.g. an unspilled PFS log) promotes for free.
	prodNode := producer.c.rank.Node()
	if dev := producer.devs[oldTier]; dev != nil {
		devSp := sys.W.Trace.Begin(p, tier.Cat(oldTier), "read-op")
		dev.Read(p, tier.ReadOp{
			Addr:          oldAddr,
			Size:          rec.Size,
			ReaderNode:    prodNode,
			ProducerNode:  prodNode,
			LocationAware: true,
			ReaderMemPath: producer.c.server.Rank.H.MemPath(),
		})
		devSp.End(p.Now())
	}

	// Recycle the old log's chunks that lie entirely inside the segment.
	producer.ls.Log(oldTier).PunchRange(oldAddr, rec.Size)

	// Re-point the metadata at the promoted copy.
	rec.VA = newVA
	sys.meta.repoint(p, prodNode, rec)

	// Pending-flush accounting follows the bytes.
	if byTier := fs.cached[producer.c.server.GlobalIdx]; byTier[oldTier] >= rec.Size {
		byTier[oldTier] -= rec.Size
		byTier[meta.TierDRAM] += rec.Size
		fs.cached[producer.c.server.GlobalIdx] = byTier
	}
	sys.stats.Promotions++
}

// Delete removes the segments lying entirely inside [off, off+size): their
// metadata records disappear and their log chunks return to the free-chunk
// stack for reuse (paper §II-B1: "once a chunk is overwritten/deleted, its
// ID is pushed back to the stack"). Partially overlapping segments are left
// untouched. It returns the number of segments removed.
func (cf *ClientFile) Delete(off, size int64) (int, error) {
	if cf.mode != mpi.WriteOnly {
		return 0, fmt.Errorf("core: delete on %q opened for %s", cf.fs.name, cf.mode)
	}
	if cf.closed {
		return 0, fmt.Errorf("core: delete on closed file %q", cf.fs.name)
	}
	if off < 0 || (size > 0 && off > math.MaxInt64-size) {
		return 0, fmt.Errorf("core: delete offset %d is negative or its end overflows", off)
	}
	sys := cf.c.sys
	fs := cf.fs
	recs := sys.metaCoveringFree(fs.fid, off, size)
	removed := 0
	for _, rec := range recs {
		if rec.Offset < off || rec.Offset+rec.Size > off+size {
			continue // only whole segments are reclaimed
		}
		producer := fs.procFiles[rec.Proc]
		if producer == nil {
			continue
		}
		tier, addr, err := producer.ls.Space().Decode(rec.VA)
		if err != nil {
			return removed, err
		}
		producer.ls.Log(tier).PunchRange(addr, rec.Size)
		sys.metaDelete(cf.c.rank.P, cf.c.rank.Node(), rec.FID, rec.Offset)
		// The deleted bytes leave the resolvable set, like an exact-key
		// rewrite — the coverage invariant reconciles against this ledger.
		fs.overwritten += rec.Size
		if end := rec.Offset + rec.Size; end > fs.deletedEnd {
			fs.deletedEnd = end
		}
		delete(fs.segTags, rec.Offset)
		if s := fs.slot(rec.Offset); s != nil {
			s.run = nil // no flush holds a later write here
		}
		if byTier := fs.cached[producer.c.server.GlobalIdx]; byTier[tier] >= rec.Size {
			byTier[tier] -= rec.Size
			fs.cached[producer.c.server.GlobalIdx] = byTier
			fs.cachedTotal -= rec.Size
		}
		removed++
	}
	// Ring mode pays one metadata round trip for the whole range here;
	// plane mode paid per-record replicated commits above instead.
	sys.meta.chargeRangeDelete(cf.c.rank.P, cf.c.rank.Node(), off)
	// Flushed CAS blocks fully inside the range lose their reference now;
	// the drop and the GC kick are park-free, so no sweep can observe
	// orphaned dead blocks in between.
	if sys.cas != nil {
		sys.casDeleteRange(fs, off, size)
		sys.casKickGC()
	}
	return removed, nil
}

// Heat returns the access count of the segment starting at the given
// logical offset.
func (sys *System) Heat(name string, offset int64) int {
	fs, ok := sys.files[name]
	if !ok || fs.heat == nil {
		return 0
	}
	return fs.heat[offset]
}
