package core

import (
	"fmt"

	"univistor/internal/kvstore"
	"univistor/internal/meta"
	"univistor/internal/sim"
	"univistor/internal/tier"
	"univistor/internal/trace"
)

// ReadAt reads [off, off+size) of the logical file, returning the payload
// bytes (zero-filled where size-only writes carried no data).
//
// With the location-aware read service (§II-B4): portions whose metadata
// sits in the node's shared metadata buffer are read straight from local
// storage with no server hop; metadata for the rest is fetched by the
// client directly from the owning metadata servers; segments on globally
// visible tiers (BB, PFS) are retrieved directly from those devices; only
// segments on a remote node's private tiers take a server round-trip.
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
	c := cf.c
	sys := c.sys
	p := c.rank.P
	fs := cf.fs
	node := c.rank.Node()

	sp := sys.W.Trace.Begin(p, trace.CatRead, "read-at")
	defer func() { sp.End(p.Now()) }()

	la := sys.Cfg.LocationAwareRead
	if !la {
		// Request goes through the co-located server.
		p.Sleep(ShmLatency)
	}

	// 1. Local shared metadata buffer: free lookups for local segments.
	var localRecs []meta.Record
	if la {
		localRecs = kvstore.CoveringStore(sys.nodeMeta[node], fs.fid, off, size)
	}
	remainder := subtractCovered(off, size, localRecs)

	// 2. Distributed lookups for the rest.
	var remoteRecs []meta.Record
	contacted := map[int]bool{}
	for _, gap := range remainder {
		recs, servers := sys.metaCovering(fs.fid, gap.off, gap.size)
		for _, srv := range servers {
			if !contacted[srv] {
				contacted[srv] = true
				sys.metaChargeLookup(p, node, srv)
			}
		}
		remoteRecs = append(remoteRecs, recs...)
	}

	// 3. Retrieve every overlapping segment portion.
	for _, rec := range localRecs {
		if err := cf.fetchSegment(p, rec, off, size, true); err != nil {
			return nil, err
		}
	}
	for _, rec := range remoteRecs {
		if err := cf.fetchSegment(p, rec, off, size, false); err != nil {
			return nil, err
		}
	}

	data, _ := fs.content.Read(off, size)
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

type byteRange struct {
	off  int64
	size int64
}

// subtractCovered returns the sub-ranges of [off, off+size) not covered by
// the records (which are sorted by offset, as CoveringStore guarantees).
func subtractCovered(off, size int64, recs []meta.Record) []byteRange {
	var gaps []byteRange
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
