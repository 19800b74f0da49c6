package core

// The metadata service of §II-B3. Every record op of the write, read,
// placement, and flush paths, and every client Stat, goes through
// System.meta, one of two metaService implementations chosen once in
// NewSystem:
//
//   - ringMeta, the single logical ring of kvstore.Ring (the default; the
//     paper figures depend on its exact costs): records range-partitioned
//     over the servers, each charged op one round trip serialized on the
//     serving server's queue — the same queue open/close ops and chaos
//     stalls hold;
//   - planeMeta, the sharded, replicated plane of internal/metaplane
//     (Config.MetaShards > 0): mutations are replicated WAL commits, reads
//     are charged on the owning shard's leader (or a leased follower).
//
// The System wrappers below keep the MetaOpDetail counters both modes
// share; the few cost and counter rules that differ per mode (range
// delete, repoint, stat) live in the implementations.

import (
	"univistor/internal/kvstore"
	"univistor/internal/meta"
	"univistor/internal/metaplane"
	"univistor/internal/sim"
	"univistor/internal/trace"
)

// MetaOpDetail breaks metadata record operations down by kind and by
// serving store: per metadata server in ring mode, per shard in plane
// mode. Only client-path operations count — cost-free invariant sweeps
// and flush planning do not.
type MetaOpDetail struct {
	Puts      int64 `json:"puts"`
	Gets      int64 `json:"gets"`
	Coverings int64 `json:"coverings"`
	Deletes   int64 `json:"deletes"`
	// StatOps counts client Stat calls (size resolution without open).
	StatOps int64 `json:"stat_ops"`
	// PerServer is indexed by metadata server (ring mode) or shard id
	// (plane mode) and counts the charged ops each served.
	PerServer []int64 `json:"per_server"`
}

func (d *MetaOpDetail) bump(idx int) {
	for len(d.PerServer) <= idx {
		d.PerServer = append(d.PerServer, 0)
	}
	d.PerServer[idx]++
}

// MetaOpDetail returns a snapshot of the metadata-op breakdown.
func (sys *System) MetaOpDetail() MetaOpDetail {
	d := sys.metaDetail
	d.PerServer = append([]int64(nil), sys.metaDetail.PerServer...)
	return d
}

// Plane exposes the metadata plane (nil in legacy ring mode).
func (sys *System) Plane() *metaplane.Plane { return sys.plane }

// metaService is the metadata store behind the client paths. Indices are
// metadata servers (ring) or shard ids (plane).
type metaService interface {
	// put inserts rec, charging one client round trip, and reports the
	// exact-key record it replaced and the index that served it.
	put(p *sim.Proc, fromNode int, rec meta.Record) (prev meta.Record, replaced bool, idx int)
	// covering resolves the records overlapping [off, off+size), in offset
	// order, with the indices a charged lookup contacts, free of charge.
	covering(fid meta.FileID, off, size int64) ([]meta.Record, []int)
	// chargeLookup charges one read-side round trip against index idx.
	chargeLookup(p *sim.Proc, fromNode, idx int)
	// delete removes the record keyed exactly by (fid, off), reporting
	// whether it existed and the index that held it.
	delete(p *sim.Proc, fromNode int, fid meta.FileID, off int64) (existed bool, idx int)
	// chargeRangeDelete charges the round trip of one range delete
	// starting at off, after its per-record deletes.
	chargeRangeDelete(p *sim.Proc, fromNode int, off int64)
	// repoint rewrites a record's placement (promotion re-point).
	repoint(p *sim.Proc, fromNode int, rec meta.Record)
	// stat charges one client Stat of the named file (fid 0 if absent).
	stat(p *sim.Proc, fromNode int, name string, fid meta.FileID)
	// checkInvariants returns the store's own violations.
	checkInvariants() []string
}

// metaPut inserts a record through the metadata service, charging one
// client round trip, and reports the exact-key record it replaced (the
// rewrite check rides inside the same round trip in both modes).
func (sys *System) metaPut(p *sim.Proc, fromNode int, rec meta.Record) (meta.Record, bool) {
	sys.metaDetail.Puts++
	prev, replaced, idx := sys.meta.put(p, fromNode, rec)
	sys.metaDetail.bump(idx)
	return prev, replaced
}

// metaCovering resolves the records overlapping [off, off+size) without
// charging time — the charged round trips follow separately via
// metaChargeLookup, exactly as the read path batches them.
func (sys *System) metaCovering(fid meta.FileID, off, size int64) ([]meta.Record, []int) {
	sys.metaDetail.Coverings++
	return sys.meta.covering(fid, off, size)
}

// metaCoveringFree resolves records for internal planning and invariant
// sweeps: no time, no counters.
func (sys *System) metaCoveringFree(fid meta.FileID, off, size int64) []meta.Record {
	recs, _ := sys.meta.covering(fid, off, size)
	return recs
}

// metaChargeLookup charges one read-side metadata round trip against the
// given server (ring mode) or shard (plane mode).
func (sys *System) metaChargeLookup(p *sim.Proc, fromNode, idx int) {
	sys.metaDetail.Gets++
	sys.metaDetail.bump(idx)
	sys.meta.chargeLookup(p, fromNode, idx)
}

// metaDelete removes one record.
func (sys *System) metaDelete(p *sim.Proc, fromNode int, fid meta.FileID, off int64) bool {
	sys.metaDetail.Deletes++
	existed, idx := sys.meta.delete(p, fromNode, fid, off)
	sys.metaDetail.bump(idx)
	return existed
}

// ---------------------------------------------------------------------------
// ringMeta: the single logical ring.

type ringMeta struct {
	sys  *System
	ring *kvstore.Ring
}

// server maps a ring index onto the serving process.
func (m *ringMeta) server(idx int) *Server {
	sys := m.sys
	if sys.Cfg.CentralMetadata {
		return sys.servers[0]
	}
	return sys.servers[idx%len(sys.servers)]
}

// charge charges one metadata record operation from a process on fromNode
// against srv: transport latency (shared memory when co-located, network
// otherwise) plus the serialized server processing.
func (m *ringMeta) charge(p *sim.Proc, fromNode int, srv *Server) {
	sys := m.sys
	sys.stats.MetaOps++
	sp := sys.W.Trace.Begin(p, trace.CatMeta, "meta-op")
	sys.chargeOp(p, fromNode, srv, sys.Cfg.MetaOpTime)
	sp.End(p.Now())
}

func (m *ringMeta) put(p *sim.Proc, fromNode int, rec meta.Record) (meta.Record, bool, int) {
	srv := m.ring.HomeServer(rec.Offset)
	m.charge(p, fromNode, m.server(srv))
	prev, replaced := m.ring.Get(rec.FID, rec.Offset)
	m.ring.Put(rec)
	return prev, replaced, srv
}

func (m *ringMeta) covering(fid meta.FileID, off, size int64) ([]meta.Record, []int) {
	return m.ring.Covering(fid, off, size)
}

func (m *ringMeta) chargeLookup(p *sim.Proc, fromNode, idx int) {
	m.charge(p, fromNode, m.server(idx))
}

// delete is free: a range delete pays one round trip for the whole range
// (chargeRangeDelete).
func (m *ringMeta) delete(_ *sim.Proc, _ int, fid meta.FileID, off int64) (bool, int) {
	return m.ring.Delete(fid, off), m.ring.HomeServer(off)
}

func (m *ringMeta) chargeRangeDelete(p *sim.Proc, fromNode int, off int64) {
	m.charge(p, fromNode, m.server(m.ring.HomeServer(off)))
}

// repoint is free and uncounted: it rides inside the promotion.
func (m *ringMeta) repoint(_ *sim.Proc, _ int, rec meta.Record) { m.ring.Put(rec) }

// stat charges the file's home server.
func (m *ringMeta) stat(p *sim.Proc, fromNode int, name string, _ meta.FileID) {
	m.charge(p, fromNode, m.sys.homeServer(name))
}

func (m *ringMeta) checkInvariants() []string { return nil }

// ---------------------------------------------------------------------------
// planeMeta: the sharded, replicated metadata plane. Every charged op is
// traced as a CatMetaPlane span and counts once in Stats.MetaOps.

type planeMeta struct {
	sys *System
	pl  *metaplane.Plane
}

// span opens a CatMetaPlane span; end closes it and counts the op.
func (m *planeMeta) span(p *sim.Proc, name string) trace.Span {
	return m.sys.W.Trace.Begin(p, trace.CatMetaPlane, name)
}

func (m *planeMeta) end(p *sim.Proc, sp trace.Span) {
	sp.End(p.Now())
	m.sys.stats.MetaOps++
}

func (m *planeMeta) put(p *sim.Proc, fromNode int, rec meta.Record) (meta.Record, bool, int) {
	prev, replaced := m.pl.GetLocal(rec.FID, rec.Offset)
	sp := m.span(p, "plane-put")
	shard := m.pl.Put(p, fromNode, rec)
	m.end(p, sp)
	return prev, replaced, shard
}

func (m *planeMeta) covering(fid meta.FileID, off, size int64) ([]meta.Record, []int) {
	return m.pl.CoveringLocal(fid, off, size)
}

func (m *planeMeta) chargeLookup(p *sim.Proc, fromNode, idx int) {
	sp := m.span(p, "plane-lookup")
	m.pl.Lookup(p, fromNode, idx)
	m.end(p, sp)
}

// delete is a replicated commit per record.
func (m *planeMeta) delete(p *sim.Proc, fromNode int, fid meta.FileID, off int64) (bool, int) {
	sp := m.span(p, "plane-delete")
	existed, shard := m.pl.Delete(p, fromNode, fid, off)
	m.end(p, sp)
	return existed, shard
}

// chargeRangeDelete is free: the per-record deletes already committed.
func (m *planeMeta) chargeRangeDelete(*sim.Proc, int, int64) {}

// repoint commits through the WAL like any other mutation and counts as
// a put.
func (m *planeMeta) repoint(p *sim.Proc, fromNode int, rec meta.Record) {
	sp := m.span(p, "plane-repoint")
	shard := m.pl.Put(p, fromNode, rec)
	m.end(p, sp)
	m.sys.metaDetail.Puts++
	m.sys.metaDetail.bump(shard)
}

// stat is served by the shard owning the file's first range (a
// nonexistent name resolves on the zero-fid shard — the one that would
// own it).
func (m *planeMeta) stat(p *sim.Proc, fromNode int, _ string, fid meta.FileID) {
	sp := m.span(p, "plane-stat")
	m.pl.Stat(p, fromNode, fid, 0)
	m.end(p, sp)
}

func (m *planeMeta) checkInvariants() []string {
	var out []string
	for _, v := range m.pl.CheckInvariants() {
		out = append(out, "metaplane "+v)
	}
	return out
}

// ---------------------------------------------------------------------------
// Fault injection (chaos `metacrash`).

// MetaCrashLeader crashes the metadata plane's current leader of the given
// shard: the group elects the longest-log survivor, which replays its
// unapplied WAL suffix before serving. Returns the crashed replica index
// for later recovery. ok is false when no plane is configured, the shard
// is unknown, or the crash would kill the last alive replica.
func (sys *System) MetaCrashLeader(shard int) (replica int, ok bool) {
	if sys.plane == nil {
		return -1, false
	}
	replica, ok = sys.plane.CrashLeader(shard)
	if ok && sys.InvariantCheck != nil {
		sys.InvariantCheck("metacrash")
	}
	return replica, ok
}

// MetaSplit starts an online metadata shard split (chaos `metasplit` and
// the -meta-split schedule): a new shard is minted and the hash-circle
// arcs the post-split ring assigns to it migrate as charged batches —
// real flows in the allocator — while the plane keeps serving. Returns
// the new shard id. ok is false when no plane is configured or another
// split is still migrating.
func (sys *System) MetaSplit() (shard int, ok bool) {
	if sys.plane == nil {
		return -1, false
	}
	shard, err := sys.plane.StartSplit(sys.W.E)
	if err != nil {
		return -1, false
	}
	if sys.InvariantCheck != nil {
		sys.InvariantCheck("metasplit")
	}
	return shard, true
}

// MetaRecover restarts a crashed metadata replica and catches it up from
// the current leader (WAL suffix or snapshot install).
func (sys *System) MetaRecover(shard, replica int) bool {
	if sys.plane == nil {
		return false
	}
	ok := sys.plane.Recover(shard, replica)
	if ok && sys.InvariantCheck != nil {
		sys.InvariantCheck("metarecover")
	}
	return ok
}
