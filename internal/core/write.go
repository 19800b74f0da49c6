package core

import (
	"fmt"
	"math"

	"univistor/internal/castore"
	"univistor/internal/meta"
	"univistor/internal/mpi"
	"univistor/internal/tier"
	"univistor/internal/trace"
)

// WriteAt writes one segment of the logical file at the given offset. data
// may be nil for size-only (benchmark-scale) runs; when present its length
// must equal size. The segment is placed by DHP: appended to the fastest
// per-process log with room, spilling tier by tier (§II-B1), with its
// metadata record inserted into the distributed metadata service (§II-B3).
func (cf *ClientFile) WriteAt(off, size int64, data []byte) error {
	return cf.write(off, size, data, 0)
}

// WriteAtTagged is WriteAt with an explicit content tag for the dedup
// layer: at benchmark scale payloads are size-only (data == nil), so the
// caller supplies a 64-bit stand-in for the segment's content identity —
// two segments carry equal tags exactly when their bytes would be equal.
// With real payload data the tag is ignored (the payload's own hash wins);
// without dedup the tag is ignored entirely.
func (cf *ClientFile) WriteAtTagged(off, size int64, data []byte, tag uint64) error {
	return cf.write(off, size, data, tag)
}

// write is WriteAt and WriteAtTagged: tag is the content tag a size-only
// segment is fingerprinted by when dedup is on.
func (cf *ClientFile) write(off, size int64, data []byte, tag uint64) error {
	if cf.mode != mpi.WriteOnly {
		return fmt.Errorf("core: write to %q opened for %s", cf.fs.name, cf.mode)
	}
	if cf.closed {
		return fmt.Errorf("core: write to closed file %q", cf.fs.name)
	}
	if size <= 0 {
		return fmt.Errorf("core: write size %d must be positive", size)
	}
	if off < 0 || off > math.MaxInt64-size {
		return fmt.Errorf("core: write offset %d is negative or its end overflows", off)
	}
	if data != nil && int64(len(data)) != size {
		return fmt.Errorf("core: payload length %d != size %d", len(data), size)
	}
	if size > cf.c.sys.Cfg.MetaRangeSize {
		return fmt.Errorf("core: segment size %d exceeds MetaRangeSize %d; split the write",
			size, cf.c.sys.Cfg.MetaRangeSize)
	}

	c := cf.c
	sys := c.sys
	p := c.rank.P

	sp := sys.W.Trace.Begin(p, trace.CatWrite, "write-at")
	defer func() { sp.End(p.Now()) }()

	// Hand the request to the co-located server over shared memory.
	p.Sleep(ShmLatency)

	va, placed, err := cf.ls.Append(size)
	if err != nil {
		return err
	}
	_, addr, err := cf.ls.Space().Decode(va)
	if err != nil {
		return err
	}

	// Data-plane cost: the landing tier's device charges the transfer.
	dev := cf.devs[placed]
	if dev == nil {
		return fmt.Errorf("core: segment of %q landed on %s but proc %d has no device there",
			cf.fs.name, placed, c.globalID)
	}
	devSp := sys.W.Trace.Begin(p, tier.Cat(placed), "write-op")
	err = dev.Write(p, tier.WriteOp{
		Node:          c.rank.Node(),
		Addr:          addr,
		Size:          size,
		ClientMemPort: c.rank.H.MemPort,
		ServerMemPort: c.server.Rank.H.MemPort,
		ServerMemPath: c.server.Rank.H.MemPath(),
	})
	devSp.End(p.Now())
	if err != nil {
		return err
	}
	if sys.Cfg.ReplicateVolatile && !sys.chain.Backend(placed).Shared() {
		sys.replicate(p, c, size)
	}

	// Metadata record: logical offset → (source proc, VA).
	rec := meta.Record{FID: cf.fs.fid, Offset: off, Size: size, Proc: c.globalID, VA: va}
	if prev, ok := sys.metaPut(p, c.rank.Node(), rec); ok {
		// Exact-key rewrite: the replaced record's bytes leave the
		// resolvable set (tracked so the coverage invariant can reconcile
		// the metadata service against the written-bytes ledger), and no
		// flush holds the new ones.
		cf.fs.overwritten += prev.Size
		if s := cf.fs.slot(off); s != nil {
			s.run = nil
		}
	}
	// Bookkeeping.
	if data != nil {
		cf.fs.content.Write(off, data)
	}
	if sys.cas != nil {
		// Content tag for flush-time fingerprinting: the payload's hash
		// when real bytes exist, else the caller's WriteAtTagged tag (zero
		// for untagged size-only writes, which therefore hash as identical
		// blank content — semantically what a size-only run models).
		if data != nil {
			tag = castore.HashBytes(data)
		}
		if cf.fs.segTags == nil {
			cf.fs.segTags = map[int64]uint64{}
		}
		cf.fs.segTags[off] = tag
	}
	if end := off + size; end > cf.fs.logicalSize {
		cf.fs.logicalSize = end
	}
	byTier := cf.fs.cached[c.server.GlobalIdx]
	byTier[placed] += size
	cf.fs.cached[c.server.GlobalIdx] = byTier
	cf.fs.cachedTotal += size
	cf.fs.totalWritten += size
	sys.stats.BytesWritten[placed] += size
	if placed != sys.chain.Backends()[0].Tier() {
		sys.stats.Spills++
	}
	sys.writeOps++
	if sys.onWrite != nil {
		sys.onWrite(sys.writeOps)
	}
	return nil
}
