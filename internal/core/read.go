package core

import (
	"fmt"
	"math"
	"slices"

	"univistor/internal/meta"
	"univistor/internal/sim"
	"univistor/internal/tier"
	"univistor/internal/trace"
)

// ReadAt reads [off, off+size) of the logical file, returning the payload
// bytes (zero-filled where size-only writes carried no data).
//
// With the location-aware read service (§II-B4): portions produced on the
// reader's node resolve with no server hop and are read straight from local
// storage; metadata for the rest is fetched by the client directly from the
// owning metadata servers; segments on globally visible tiers (BB, PFS) are
// retrieved directly from those devices; only segments on a remote node's
// private tiers take a server round-trip.
//
// With the service disabled, every byte funnels through the co-located
// server (an extra memory-copy leg) and remote-node data is relayed
// server-to-server before reaching the client.
func (cf *ClientFile) ReadAt(off, size int64) ([]byte, error) {
	if cf.closed {
		return nil, fmt.Errorf("core: read from closed file %q", cf.fs.name)
	}
	if size <= 0 {
		return nil, fmt.Errorf("core: read size %d must be positive", size)
	}
	if off < 0 || off > math.MaxInt64-size {
		return nil, fmt.Errorf("core: read offset %d is negative or its end overflows", off)
	}
	c := cf.c
	sys := c.sys
	p := c.rank.P
	fs := cf.fs
	node := c.rank.Node()

	sp := sys.W.Trace.Begin(p, trace.CatRead, "read-at")
	defer func() { sp.End(p.Now()) }()
	b := sys.getCoverBuf()
	defer sys.putCoverBuf(b)

	la := sys.Cfg.LocationAwareRead
	if !la {
		// Request goes through the co-located server.
		p.Sleep(ShmLatency)
	}

	// 1. Local shared metadata buffer: free lookups for local segments. The
	// buffer is a view of the metadata service, the free covering's records
	// whose producer runs on this node.
	if la {
		b.recs, b.idx = sys.meta.covering(b.recs, b.idx, fs.fid, off, size)
		for _, rec := range b.recs {
			if pf := fs.procFiles[rec.Proc]; pf != nil && pf.c.rank.Node() == node {
				b.local = append(b.local, rec)
			}
		}
		b.recs = b.recs[:0]
	}
	b.gaps = appendGaps(b.gaps, off, size, b.local)

	// 2. Distributed lookups for the rest, one charged round trip per
	// server on first contact.
	for _, gap := range b.gaps {
		b.recs, b.idx = sys.metaCovering(b.recs, b.idx[:0], fs.fid, gap.off, gap.size)
		for _, srv := range b.idx {
			if !slices.Contains(b.contacted, srv) {
				b.contacted = append(b.contacted, srv)
				sys.metaChargeLookup(p, node, srv)
			}
		}
	}

	// 3. Retrieve every overlapping segment portion.
	for _, rec := range b.local {
		if err := cf.fetchSegment(p, rec, off, size, true); err != nil {
			return nil, err
		}
	}
	for _, rec := range b.recs {
		if err := cf.fetchSegment(p, rec, off, size, false); err != nil {
			return nil, err
		}
	}

	data := fs.content.Read(off, size)
	return data, nil
}

// fetchSegment charges the data-plane cost of retrieving the portion of a
// segment overlapping the request.
func (cf *ClientFile) fetchSegment(p *sim.Proc, rec meta.Record, off, size int64, localHit bool) error {
	c := cf.c
	sys := c.sys
	fs := cf.fs
	myNode := c.rank.Node()
	la := sys.Cfg.LocationAwareRead

	lo, hi := rec.Offset, rec.Offset+rec.Size
	if lo < off {
		lo = off
	}
	if hi > off+size {
		hi = off + size
	}
	bytes := hi - lo
	if bytes <= 0 {
		return nil
	}

	producer := fs.procFiles[rec.Proc]
	if producer == nil {
		return fmt.Errorf("core: no producer handle for proc %d of %q", rec.Proc, fs.name)
	}
	t, addr, err := producer.ls.Space().Decode(rec.VA)
	if err != nil {
		return err
	}
	// Address of the requested portion inside the producer's log.
	addr += lo - rec.Offset
	prodNode := producer.c.rank.Node()
	prodServer := producer.c.server

	// Heat tracking for proactive placement: count the access and promote
	// the segment once it crosses the threshold.
	if sys.Cfg.ProactivePlacement {
		defer cf.trackHeat(p, rec, producer, t)
	}

	if !sys.chain.Backend(t).Shared() && sys.failedNodes[prodNode] {
		return cf.fetchFromReplicaOrPFS(p, producer, rec, lo, bytes)
	}

	dev := producer.devs[t]
	if dev == nil {
		return fmt.Errorf("core: segment of %q on %s but producer %d has no device there",
			fs.name, t, rec.Proc)
	}
	devSp := sys.W.Trace.Begin(p, tier.Cat(t), "read-op")
	loc, err := dev.Read(p, tier.ReadOp{
		Addr:               addr,
		Size:               bytes,
		ReaderNode:         myNode,
		ProducerNode:       prodNode,
		LocationAware:      la,
		ReaderMemPort:      c.rank.H.MemPort,
		ReaderMemPath:      c.rank.H.MemPath(),
		ReaderSrvMemPort:   c.server.Rank.H.MemPort,
		ReaderSrvMemPath:   c.server.Rank.H.MemPath(),
		ProducerSrvMemPath: prodServer.Rank.H.MemPath(),
	})
	devSp.End(p.Now())
	if err != nil {
		return fmt.Errorf("core: reading segment of %q: %w", fs.name, err)
	}
	// Independent served-bytes ledger (incremented here, once per portion,
	// regardless of locality) against which the per-locality Stats counters
	// are checked for coherence.
	sys.servedReadBytes += bytes
	switch loc {
	case tier.Local:
		// Only the location-aware direct path counts as a local hit; the
		// relayed variant is a plain server copy.
		if la {
			sys.stats.BytesReadLocal += bytes
		}
	case tier.Remote:
		sys.stats.BytesReadRemote += bytes
	case tier.Shared:
		sys.stats.BytesReadShared += bytes
	}
	return nil
}

// coverBuf is the buffers of one ReadAt call or flush trigger. Both park
// while they still hold the records, so every read or trigger in flight
// takes its own set from the System's free list and returns it, emptied,
// when it finishes.
type coverBuf struct {
	recs      []meta.Record // the metadata service's covering records
	idx       []int         // the indices its covering reports
	local     []meta.Record // the node buffer's records
	gaps      []byteRange   // the ranges local records miss
	contacted []int         // the indices charged so far

	// A flush trigger's placement of recs (see placeFlush).
	flushers []int       // the flushing servers' global indices, ascending
	placed   []int64     // the bytes placed so far in each flusher's range
	slots    []flushSlot // the file's new flush layout
}

func (sys *System) getCoverBuf() *coverBuf {
	if n := len(sys.coverBufs); n > 0 {
		b := sys.coverBufs[n-1]
		sys.coverBufs = sys.coverBufs[:n-1]
		return b
	}
	return &coverBuf{}
}

func (sys *System) putCoverBuf(b *coverBuf) {
	b.recs, b.idx, b.local = b.recs[:0], b.idx[:0], b.local[:0]
	b.gaps, b.contacted = b.gaps[:0], b.contacted[:0]
	b.flushers, b.placed, b.slots = b.flushers[:0], b.placed[:0], b.slots[:0]
	sys.coverBufs = append(sys.coverBufs, b)
}

type byteRange struct {
	off  int64
	size int64
}

// appendGaps appends to gaps the sub-ranges of [off, off+size) not covered
// by the records (which are sorted by offset, as CoverRange guarantees).
func appendGaps(gaps []byteRange, off, size int64, recs []meta.Record) []byteRange {
	cur := off
	end := off + size
	for _, r := range recs {
		rLo, rHi := r.Offset, r.Offset+r.Size
		if rHi <= cur || rLo >= end {
			continue
		}
		if rLo > cur {
			gaps = append(gaps, byteRange{cur, rLo - cur})
		}
		if rHi > cur {
			cur = rHi
		}
	}
	if cur < end {
		gaps = append(gaps, byteRange{cur, end - cur})
	}
	return gaps
}
