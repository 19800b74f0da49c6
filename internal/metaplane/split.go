package metaplane

// Online shard splitting. StartSplit is the one way to add a shard: it
// mints a new shard and migrates every hash-circle arc the post-split ring
// assigns to it as *charged* work — batch by batch, serialized on both
// leaders' service queues and shipped across the fabric as a real flow in
// the max-min allocator (via Plane.Mover) — while the plane keeps serving.
//
// Routing during the transfer is arc-granular. Each arc is in one of
// three phases:
//
//	pending — the source still owns the arc; nothing special happens.
//	copying — the source owns the arc (reads and writes route there), and
//	          every mutation is double-applied onto the target (marked
//	          dirty so an in-flight batch never clobbers it). Read leases
//	          on both groups are revoked and frozen for the window.
//	done    — ownership flipped to the target; the source purged the arc.
//
// The flip happens at a single virtual instant — the migrator does not
// yield between the last batch landing, the source purge, and the phase
// change — so no client ever observes a half-moved arc: a record is never
// lost and never double-counted.
import (
	"fmt"
	"math"
	"sort"

	"univistor/internal/meta"
	"univistor/internal/sim"
)

// Mover charges one split-migration batch as a real transfer between two
// cluster nodes — the hook the core installs to run migration traffic
// through the max-min flow allocator. A nil Mover degrades to a
// latency-only hop.
type Mover func(p *sim.Proc, fromNode, toNode int, bytes int64)

// firstKey and lastKey bound a scan of a whole store: no file id or
// offset reaches math.MaxInt64.
var (
	firstKey = meta.Key{FID: math.MinInt64, Offset: math.MinInt64}
	lastKey  = meta.Key{FID: math.MaxInt64, Offset: math.MaxInt64}
)

type arcPhase int

const (
	arcPending arcPhase = iota
	arcCopying
	arcDone
)

// splitArc is one hash-circle interval (lo, hi] — wrapping through zero
// when lo >= hi — that the split moves from shard `from` to the target.
type splitArc struct {
	lo, hi uint64
	from   int
	phase  arcPhase

	// dirty marks keys mutated through the double-apply path while this
	// arc was copying: the batch landing skips them so the copy never
	// overwrites a newer mirrored value or resurrects a mirrored delete.
	dirty map[meta.Key]bool
}

func (a *splitArc) contains(h uint64) bool {
	if a.lo < a.hi {
		return h > a.lo && h <= a.hi
	}
	return h > a.lo || h <= a.hi
}

// splitRun is the state of one active online split.
type splitRun struct {
	target  int         // shard being split in (off the live ring until done)
	newRing *HashRing   // post-split ring, installed when the run finishes
	arcs    []*splitArc // ascending by hi; arcs[0] is the wrap arc if any
	his     []uint64    // arcs[i].hi, for binary search
}

// arcFor returns the arc containing hash h, or nil when the split does not
// move h.
func (s *splitRun) arcFor(h uint64) *splitArc {
	if s.newRing.Owner(h) != s.target {
		return nil
	}
	i := sort.Search(len(s.his), func(i int) bool { return s.his[i] >= h })
	if i < len(s.arcs) && s.arcs[i].contains(h) {
		return s.arcs[i]
	}
	if a := s.arcs[0]; a.lo >= a.hi && a.contains(h) {
		return a // h is past the highest virtual node: the wrap arc owns it
	}
	return nil
}

// Splitting reports whether an online split is migrating, and its target
// shard id.
func (pl *Plane) Splitting() (target int, active bool) {
	if pl.split == nil {
		return 0, false
	}
	return pl.split.target, true
}

// StartSplit mints a new shard and spawns a migrator process on e that
// moves the arcs the post-split consistent hash assigns to it — as charged
// batches on the virtual clock — then installs the new ring and calls
// Plane.SplitDone. Returns the new shard id immediately; the split runs
// online while clients keep issuing ops. Refuses while another split is
// migrating.
func (pl *Plane) StartSplit(e *sim.Engine) (int, error) {
	if pl.split != nil {
		return 0, fmt.Errorf("metaplane: split already in progress (target shard %d)", pl.split.target)
	}
	g := pl.newGroup() // deliberately not on the live ring: owner() routes per arc
	newRing := pl.ring.Clone()
	newRing.AddShard(g.id)
	s := &splitRun{target: g.id, newRing: newRing}
	pts := newRing.points
	for i, pt := range pts {
		if pt.shard != g.id {
			continue
		}
		// The interval (prev, pt] contains no other ring point, so its old
		// owner is uniform: the old ring's owner of the arc's endpoint.
		prev := pts[(i-1+len(pts))%len(pts)].hash
		s.arcs = append(s.arcs, &splitArc{
			lo:    prev,
			hi:    pt.hash,
			from:  pl.ring.Owner(pt.hash),
			dirty: map[meta.Key]bool{},
		})
		s.his = append(s.his, pt.hash)
	}
	pl.split = s
	pl.stats.Splits++
	e.Go("shard-split", func(p *sim.Proc) { pl.runSplit(p, s, g) })
	return g.id, nil
}

// runSplit migrates every arc of s, one at a time, then installs the
// post-split ring.
func (pl *Plane) runSplit(p *sim.Proc, s *splitRun, target *group) {
	batchRecs := pl.cfg.SplitBatchRecords
	if batchRecs <= 0 {
		batchRecs = DefaultSplitBatchRecords
	}
	var recs []meta.Record
	for _, a := range s.arcs {
		src := pl.groups[a.from]
		inArc := func(rec meta.Record) bool {
			if a.contains(pl.keyHash(rec.FID, rec.Offset)) {
				recs = append(recs, rec)
			}
			return true
		}
		// The arc's transfer window opens: leases on both ends are revoked
		// and frozen — a follower must not serve a key whose ownership is
		// in flight.
		pl.freezeLeases(src)
		pl.freezeLeases(target)
		a.phase = arcCopying

		// Snapshot the arc's record set as of the copy start. Keys mutated
		// after this instant reach the target through the double-apply
		// path and are marked dirty.
		recs = recs[:0]
		src.lead().store.Scan(firstKey, lastKey, inArc)
		for start := 0; start < len(recs); start += batchRecs {
			end := start + batchRecs
			if end > len(recs) {
				end = len(recs)
			}
			batch := recs[start:end]
			pl.chargeBatch(p, src, target, len(batch))
			for _, rec := range batch {
				if a.dirty[rec.Key()] {
					continue // a newer mirrored mutation already landed
				}
				pl.adminApply(target, OpPut, rec)
			}
			pl.stats.SplitRecords += int64(len(batch))
			pl.stats.SplitBytes += int64(len(batch)) * recordBytes
			pl.Trace.Counter(p.Now(), "meta.split_records", pl.stats.SplitRecords)
		}

		// Hand the arc over: re-scan the source (keys created mid-copy are
		// already mirrored onto the target), retire every arc record from
		// it, and flip ownership. The migrator does not yield here, so the
		// purge and the flip are atomic on the virtual clock. The purge
		// deletes from the store, so it walks its own list of the arc.
		recs = recs[:0]
		src.lead().store.Scan(firstKey, lastKey, inArc)
		for _, rec := range recs {
			pl.adminApply(src, OpDelete, meta.Record{FID: rec.FID, Offset: rec.Offset})
			pl.stats.Handoffs++
		}
		a.phase = arcDone
		a.dirty = nil
		pl.unfreezeLeases(src)
		pl.unfreezeLeases(target)
	}
	// Every arc is done, so owner() already answers exactly as the new
	// ring would: installing it is invisible to routing.
	pl.ring = s.newRing
	pl.split = nil
	if pl.SplitDone != nil {
		pl.SplitDone()
	}
}

// chargeBatch charges one migration batch's cost: a serialized read-out
// slot on the source leader, the wire transfer (a real allocator flow when
// a Mover is installed), and a serialized apply slot on the target leader.
func (pl *Plane) chargeBatch(p *sim.Proc, src, dst *group, n int) {
	c := pl.cfg.Costs
	sl, dl := src.lead(), dst.lead()
	t0 := p.Now()
	if wait := float64(sl.ops.Serve(t0, c.OpTime+float64(n)*c.ApplyTime) - t0); wait > 0 {
		p.Sleep(wait)
	}
	if sl.node != dl.node {
		if pl.Mover != nil {
			pl.Mover(p, sl.node, dl.node, int64(n)*recordBytes)
		} else {
			p.Sleep(c.NetLatency)
		}
	}
	t1 := p.Now()
	if wait := float64(dl.ops.Serve(t1, float64(n)*c.ApplyTime) - t1); wait > 0 {
		p.Sleep(wait)
	}
}
