package core

// The content-addressed dedup block layer on the flush path. At flush time
// the file's logical image is chunked into fixed-size blocks and each block
// fingerprinted from the segments covering it (payload hash when real bytes
// were written, the producer's content tag in size-only runs). Blocks whose
// content already exists in the store dedup away: the flush only moves the
// physical remainder. Overwrites and deletes decrement refcounts; dead
// blocks queue for a background GC that runs as a real flow through the PFS
// resources, competing in the max-min allocator like any other transfer.

import (
	"fmt"

	"univistor/internal/castore"
	"univistor/internal/lustre"
	"univistor/internal/meta"
	"univistor/internal/sim"
	"univistor/internal/trace"
)

// Dedup sizing defaults (Config.DedupBlockBytes / DedupGCBatchBytes).
const (
	defaultDedupBlockBytes   = 1 << 20
	defaultDedupGCBatchBytes = 256 << 20
)

// setupCAS builds the content-addressed store and its GC scratch file.
// Called from NewSystem when Cfg.Dedup is set.
func (sys *System) setupCAS() error {
	blockBytes := sys.Cfg.DedupBlockBytes
	if blockBytes <= 0 {
		blockBytes = defaultDedupBlockBytes
	}
	sys.Cfg.DedupBlockBytes = blockBytes
	if sys.Cfg.DedupGCBatchBytes <= 0 {
		sys.Cfg.DedupGCBatchBytes = defaultDedupGCBatchBytes
	}
	sys.cas = castore.New(blockBytes)
	count := 4
	if n := sys.PFS.OSTCount(); count > n {
		count = n
	}
	f, err := sys.PFS.Create("cas-gc", lustre.StripeSpec{Size: 1 << 20, Count: count, StartOST: 0}, 1)
	if err != nil {
		return fmt.Errorf("core: creating CAS GC file: %w", err)
	}
	sys.casGCFile = f
	return nil
}

// casPlanFlush chunks the file's current logical image into CAS blocks,
// updates the store's block map (interning new content, releasing replaced
// blocks), and returns the physical bytes this flush must actually move.
// recs is the file's covering record set in ascending offset order — the
// same set triggerFlush already fetched for the flush-offset map.
func (sys *System) casPlanFlush(p *sim.Proc, fs *fileState, recs []meta.Record) int64 {
	bb := sys.cas.BlockBytes()
	n := (fs.logicalSize + bb - 1) / bb
	if n == 0 {
		return 0
	}
	sp := sys.W.Trace.Begin(p, trace.CatCAS, "cas-plan")
	blocks := scratch(&sys.casBlocks, n)
	digests := scratch(&sys.casDigests, n)
	touched := scratch(&sys.casTouched, n)
	clear(touched)
	for i := int64(0); i < n; i++ {
		size := bb
		if end := (i + 1) * bb; end > fs.logicalSize {
			size = fs.logicalSize - i*bb
		}
		blocks[i] = castore.Block{Index: i, Size: size}
		// Seed each fingerprint with the block's extent size: two blocks are
		// "identical" only at equal extents, so a partial tail block can
		// never collide with a full block that folds the same spans (the
		// store interns one size per hash and treats a mismatch as a bug).
		digests[i] = castore.NewDigest().Word(uint64(size))
	}
	// Fold every covering segment's spans into the blocks it touches. The
	// fingerprint is position-sensitive within the block (span offset, the
	// span's offset inside its segment, length, content tag), so identical
	// layouts with identical content collide — the dedup — while any byte
	// of difference separates them. Gaps contribute nothing; all-gap blocks
	// stay holes and are never interned.
	for _, rec := range recs {
		tag := fs.segTags[rec.Offset]
		end := rec.Offset + rec.Size
		for idx := rec.Offset / bb; idx < n && idx*bb < end; idx++ {
			bStart := idx * bb
			lo := rec.Offset
			if bStart > lo {
				lo = bStart
			}
			hi := bStart + bb
			if hi > end {
				hi = end
			}
			digests[idx] = digests[idx].
				Word(uint64(lo - bStart)).
				Word(uint64(lo - rec.Offset)).
				Word(uint64(hi - lo)).
				Word(tag)
			touched[idx] = true
		}
	}
	for i := range blocks {
		if touched[i] {
			blocks[i].Hash = digests[i].Sum()
		}
	}
	phys := sys.cas.UpdateFile(fs.name, blocks)
	sys.stats.BytesFlushedPhysical += phys
	sys.stats.DedupBytesSaved += fs.cachedTotal - phys
	sys.casLogical += fs.cachedTotal
	sp.End(p.Now())
	sys.traceCAS(p.Now())
	return phys
}

// scratch resizes *buf to n elements, growing it only when it is too
// short, and returns it. The elements keep their old values.
func scratch[T any](buf *[]T, n int64) []T {
	if int64(cap(*buf)) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// traceCAS records the dedup layer's counter series: cumulative logical
// bytes presented to flush, the physical bytes actually moved, and the
// dead bytes pending GC.
func (sys *System) traceCAS(t sim.Time) {
	if tr := sys.W.Trace; tr.Enabled() {
		tr.Counter(t, "cas.logical_bytes", sys.casLogical)
		tr.Counter(t, "cas.physical_bytes", sys.stats.BytesFlushedPhysical)
		tr.Counter(t, "cas.dead_bytes", sys.cas.PendingBytes())
	}
}

// casDeleteRange releases the flushed blocks lying entirely inside the
// deleted range [off, off+size): their content is no longer part of the
// file's logical image, so their references drop now rather than at the
// next flush. Partially covered edge blocks keep their reference until a
// re-flush refingerprints them.
func (sys *System) casDeleteRange(fs *fileState, off, size int64) {
	if sys.cas == nil {
		return
	}
	bb := sys.cas.BlockBytes()
	first := (off + bb - 1) / bb // first block fully inside
	last := (off+size)/bb - 1    // last block fully inside
	sys.cas.DropRange(fs.name, first, last)
}

// casKickGC starts the background collector if dead blocks await and no
// collector is running. The GC proc exits when the queue drains (a
// self-rescheduling periodic task would keep the event heap non-empty and
// Engine.Run would never return), so every death site kicks it again.
func (sys *System) casKickGC() {
	if sys.cas == nil || sys.casGCBusy || sys.cas.PendingBytes() == 0 {
		return
	}
	sys.casGCBusy = true
	sys.W.E.Go("cas-gc", func(p *sim.Proc) { sys.casGCRun(p) })
}

// casGCRun drains the dead-block queue in batches, each charged as a real
// PFS flow from the GC scratch file — collection pressure competes with
// application I/O in the max-min allocator. Runs in its own proc; exits
// when the queue is empty.
func (sys *System) casGCRun(p *sim.Proc) {
	defer func() { sys.casGCBusy = false }()
	node := 0
	if len(sys.servers) > 0 {
		node = sys.servers[0].Node
	}
	for {
		blocks, bytes := sys.cas.CollectBatch(sys.Cfg.DedupGCBatchBytes)
		if blocks == 0 {
			return
		}
		sp := sys.W.Trace.Begin(p, trace.CatCAS, "cas-gc")
		if err := sys.casGCFile.Write(p, node, 0, bytes); err != nil {
			panic(fmt.Sprintf("core: CAS GC flow: %v", err))
		}
		sp.End(p.Now())
		sys.stats.CASGCRuns++
		sys.stats.CASGCBytes += bytes
		sys.traceCAS(p.Now())
	}
}

// checkCAS sweeps the content-addressed store's conservation invariants:
// the store's internal refcount/byte accounting (sum of refcounts × block
// size == live logical extent bytes, no double-free, no leak), that every
// flushed file the store tracks still exists in the registry, and that no
// orphan block waits for a collector that is not running.
func (sys *System) checkCAS() []string {
	if sys.cas == nil {
		return nil
	}
	out := sys.cas.CheckInvariants()
	for _, name := range sys.cas.Files() {
		if _, ok := sys.files[name]; !ok {
			out = append(out, fmt.Sprintf("cas: block map held for unknown file %q", name))
		}
	}
	if !sys.casGCBusy && sys.cas.PendingBytes() > 0 {
		out = append(out, fmt.Sprintf(
			"cas: %d dead bytes await GC but no collector is running (orphaned)",
			sys.cas.PendingBytes()))
	}
	return out
}

// CASStats returns the content-addressed store's counter snapshot, or nil
// when dedup is disabled.
func (sys *System) CASStats() *castore.Stats {
	if sys.cas == nil {
		return nil
	}
	st := sys.cas.Stats()
	return &st
}
