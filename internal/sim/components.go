// Connected-component partition of the active flow set. Two flows are
// connected when they share a Resource (directly or transitively); under
// max-min water-filling, a flow transition or capacity change in one
// component cannot change any rate in a disjoint component, so only dirty
// components are re-solved. The partition follows one rule: a starting
// flow merges every component it bridges, and a component lives until its
// last flow finishes. Completions never split a component. One that has
// come apart is still solved as one water-fill, which gives bitwise the
// same rates as solving its parts (their resource states never interact),
// and the differential check asserts exactly that against the global
// solve. A resource whose last crossing retired is closed at the next
// solve (see allocateFast).
//
// Components are solved one after another on the dispatcher goroutine, in
// dirty-queue order. The paper's workloads couple most flows through one
// shared fabric, so a batch is usually one large component, and splitting
// the batch across goroutines would buy nothing.

package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// component is one connected set of active flows and the resources they
// cross, with the solver state it keeps across solves: its changed and
// claimed resources, its order, and its flows' earliest finish time.
type component struct {
	id int64
	// flows is the component's active flow list in ascending flow.seq
	// order — the same relative order the global solver would visit them,
	// which keeps per-component solving bitwise-identical to it.
	flows []*flow
	// resources owned by this component (r.comp == c) but those claimed
	// since its last solve, each once: merge appends, and a solve drops
	// those whose last crossing retired and appends those claimed since
	// (see allocateFast).
	resources []*Resource
	// changed lists the members of resources whose crossing list changed,
	// or whose order entry a merge handed back, since the last solve;
	// fresh lists the resources claimed since then. Both link through
	// resState.next, each resource once.
	changed, fresh *Resource
	// solvedGen is the capacity generation every resource but the fresh
	// ones is current at: that of the last solve, 0 before the first, or
	// -1 after a merge of components last solved under different
	// generations.
	solvedGen int64
	// order holds the resources admitted by the last solve as share-heap
	// entries, sorted by (initial share, resource id), each once (see
	// allocateFast).
	order []fastEntry
	// minT is the earliest finish time, now + remaining/rate, over the
	// component's flows with a positive rate, taken at the instant minAt
	// by its last solve or by scheduleCompletion; add and completeAll
	// invalidate it. minTaken marks that a scheduleCompletion used it.
	minT, minAt Time
	minTaken    bool

	dirty bool // queued in flowSet.dirtyComps
	dead  bool // merged away or drained; skip everywhere
	visit bool // add()/completeAll dedup scratch
}

// add inserts a started flow into the active set and the partition:
// the components reachable through the flow's resources are unioned (the
// flow may bridge several), the flow joins each resource's crossing list,
// unowned resources are claimed onto the fresh list and owned ones queued
// as changed, the flow's mask takes the owned ones' inMask, and the target
// component's completion minimum is invalidated and the component queued
// for a same-instant batch solve. An unowned resource's inMask is clear.
func (fs *flowSet) add(f *flow) {
	fs.flowSeq++
	f.seq = fs.flowSeq
	f.pathFacts(fs.capGen)
	fs.active = append(fs.active, f)

	found := fs.compScratch[:0]
	for _, r := range f.resources {
		if c := r.comp; c != nil && !c.visit {
			c.visit = true
			found = append(found, c)
		}
	}
	for _, c := range found {
		c.visit = false
	}
	var target *component
	switch len(found) {
	case 0:
		target = fs.newComponent()
		fs.comps = append(fs.comps, target)
	case 1:
		target = found[0]
	default:
		target = fs.merge(found)
	}
	fs.compScratch = found[:0]
	target.flows = append(target.flows, f) // f.seq is the maximum: stays sorted
	target.minAt = -1
	f.comp = target
	for i, r := range f.resources {
		st := &r.st
		st.flows = append(st.flows, f) // f.seq is the maximum: stays sorted
		st.stale = true
		if r.comp == nil {
			r.comp = target
			st.fresh = true
			st.next, target.fresh = target.fresh, r
			st.capGen = 0 // take Capacity afresh: no cached fact depends on it
		} else {
			target.queue(r)
			if st.inMask && i < maskBits {
				f.mask |= 1 << i
			}
		}
	}
	fs.markCompDirty(target)
}

// merge unions the given components into the one with the most flows
// (ties to the lowest id), in O(total flows) via sorted-list merges.
func (fs *flowSet) merge(cs []*component) *component {
	target := cs[0]
	for _, c := range cs[1:] {
		if len(c.flows) > len(target.flows) ||
			(len(c.flows) == len(target.flows) && c.id < target.id) {
			target = c
		}
	}
	for _, c := range cs {
		if c == target {
			continue
		}
		fs.stats.Merges++
		target.flows, fs.mergeBuf = mergeBySeq(target.flows, c.flows, fs.mergeBuf)
		for _, f := range c.flows {
			f.comp = target
		}
		for _, r := range c.resources {
			r.comp = target
		}
		target.resources = append(target.resources, c.resources...)
		target.changed = moveList(c.changed, target.changed, target)
		target.fresh = moveList(c.fresh, target.fresh, target)
		switch {
		case target.solvedGen == 0:
			target.solvedGen = c.solvedGen
		case c.solvedGen != 0 && c.solvedGen != target.solvedGen:
			target.solvedGen = -1 // the next solve visits every resource
			fs.solve.counts.mixedMerges++
		}
		// The longer order's entries stay, and the next solve re-inserts
		// the other's resources, queued as changed. The entries that stay
		// move to the roomier of the two arrays, so the re-insertion rarely
		// grows it.
		keep, spare := target.order, c.order
		if len(spare) > len(keep) {
			keep, spare = spare, keep
		}
		for _, e := range spare {
			e.res.st.ordered = false
			target.queue(e.res)
		}
		fs.solve.counts.absorbed += int64(len(spare))
		if cap(spare) > cap(keep) {
			keep, spare = append(spare[:0], keep...), keep
		}
		target.order, c.order = keep, spare
		c.dirty = false
		fs.retire(c)
	}
	fs.removeDead()
	return target
}

// queue puts r, which c owns, on c's changed list unless it is on one of
// c's lists already.
func (c *component) queue(r *Resource) {
	st := &r.st
	if st.queued || st.fresh {
		return
	}
	st.queued = true
	st.next, c.changed = c.changed, r
}

// moveList pushes every resource of the list headed by r onto the list
// headed by dst, owned by c, and returns the new head.
func moveList(r, dst *Resource, c *component) *Resource {
	for r != nil {
		next := r.st.next
		r.comp = c
		r.st.next, dst = dst, r
		r = next
	}
	return dst
}

// mergeBySeq merges two flow lists each in ascending seq order. A pure
// append reuses a's backing array and hands buf back untouched; any other
// merge is written into buf, and a's array, cleared, is returned as the
// spare for the next merge. The merged list never shares its array with
// the spare.
func mergeBySeq(a, b, buf []*flow) (merged, spare []*flow) {
	if len(b) == 0 {
		return a, buf
	}
	if len(a) == 0 || a[len(a)-1].seq < b[0].seq {
		return append(a, b...), buf
	}
	out := slices.Grow(buf[:0], len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].seq < b[j].seq {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	clear(a)
	return out, a[:0]
}

// newComponent takes a component from the pool (or allocates one) and
// gives it the next id, so merge tie-breaks follow creation order whether
// or not the component was recycled.
func (fs *flowSet) newComponent() *component {
	var c *component
	if n := len(fs.compPool); n > 0 {
		c = fs.compPool[n-1]
		fs.compPool = fs.compPool[:n-1]
	} else {
		c = &component{}
	}
	fs.compSeq++
	c.id = fs.compSeq
	return c
}

// retire marks a merged-away or drained component dead and parks it on
// the graveyard. It may still sit in dirtyComps, so it is recycled only
// once processDirty has cleared that queue.
func (fs *flowSet) retire(c *component) {
	c.dead = true
	fs.graveyard = append(fs.graveyard, c)
}

// recycleGraveyard returns every retired component to the pool, its flow,
// resource and order arrays kept but cleared so the pool retains no flow
// or resource. Nothing references a dead component once dirtyComps is
// empty.
func (fs *flowSet) recycleGraveyard() {
	for _, c := range fs.graveyard {
		clear(c.flows[:cap(c.flows)])
		clear(c.resources[:cap(c.resources)])
		clear(c.order[:cap(c.order)])
		*c = component{flows: c.flows[:0], resources: c.resources[:0], order: c.order[:0]}
		fs.compPool = append(fs.compPool, c)
	}
	fs.graveyard = fs.graveyard[:0]
}

// removeDead filters dead components out of the live list, preserving
// creation order.
func (fs *flowSet) removeDead() {
	kept := fs.comps[:0]
	for _, c := range fs.comps {
		if !c.dead {
			kept = append(kept, c)
		}
	}
	fs.comps = kept
}

// queueDirty marks c for the next batch solve without scheduling the
// deferred event (RecomputeResources solves synchronously).
func (fs *flowSet) queueDirty(c *component) {
	if c.dirty || c.dead {
		return
	}
	c.dirty = true
	fs.dirtyComps = append(fs.dirtyComps, c)
}

// markCompDirty queues c and schedules one deferred batch solve for the
// current instant — coalescing the work when thousands of flows start or
// finish together.
func (fs *flowSet) markCompDirty(c *component) {
	fs.queueDirty(c)
	if fs.dirty {
		return
	}
	fs.dirty = true
	fs.e.at(fs.e.now, event{kind: evBatch})
}

// processDirty water-fills every queued dirty component, closing the
// resources whose last crossing retired. Runs the differential check and
// tracer sample once per batch. The caller (runPending) reschedules the
// global completion event afterwards.
func (fs *flowSet) processDirty() {
	if len(fs.dirtyComps) == 0 {
		return
	}
	fs.stats.Recomputes++
	for i := 0; i < len(fs.dirtyComps); i++ {
		c := fs.dirtyComps[i]
		if c.dead || !c.dirty {
			continue
		}
		c.dirty = false
		fs.solveComponent(c)
	}
	fs.dirtyComps = fs.dirtyComps[:0]
	fs.recycleGraveyard()
	if n := len(fs.comps); n > fs.stats.PeakComponents {
		fs.stats.PeakComponents = n
	}
	if fs.diffCheck {
		fs.verifyIncremental()
	}
	if tr := fs.e.tracer; tr != nil {
		tr.Counter(fs.e.now, "alloc.components", int64(len(fs.comps)))
		tr.Counter(fs.e.now, "alloc.flows_solved", fs.stats.FlowsSolved)
	}
}

// solveComponent water-fills one component and, with a tracer attached,
// samples its resources' rates. A drained component (no flows left) is
// retired: its resources are closed out and it is removed from the live
// list.
func (fs *flowSet) solveComponent(c *component) {
	if len(c.flows) == 0 {
		for _, r := range c.resources {
			fs.closeResource(r)
		}
		fs.retire(c)
		fs.removeDead()
		return
	}
	fs.stats.ComponentsSolved++
	fs.stats.FlowsSolved += int64(len(c.flows))
	fs.allocateFast(c)
	if tr := fs.e.tracer; tr != nil {
		fs.sampleRates(tr, c.resources)
	}
}

// byFirstCrossing orders resources by the seq of the first flow in their
// crossing lists, then by the position of their first crossing on that
// flow's path. That is the order in which a walk of a component's flows
// first meets them, so sorting the resources a component claimed since
// its last solve this way and appending them makes a tracer register new
// resources in the same order as when every solve re-derived the
// resource set by such a walk. The order of the other resources decides
// nothing: each one's rate, samples and heap key are its own.
func byFirstCrossing(a, b *Resource) int {
	fa, fb := a.st.flows[0], b.st.flows[0]
	if fa != fb {
		return cmp.Compare(fa.seq, fb.seq)
	}
	return cmp.Compare(slices.Index(fa.resources, a), slices.Index(fa.resources, b))
}

// scheduleCompletion reschedules the single global completion event at
// the earliest finish time over the active flows. Every batch bumps the
// generation, superseding the previous event. The earliest time is the
// least of the components' minima: a component solved at this instant
// took its minimum in the solve, and one whose minimum was taken at this
// instant before still has it, since neither its rates nor its flows'
// remaining bytes have moved since (add and completeAll invalidate it).
// Only the other components are walked. A minimum over the same values is
// bitwise the same in any grouping, so bestT is that of one walk of every
// active flow, which the differential check asserts.
func (fs *flowSet) scheduleCompletion() {
	fs.gen++
	bestT := Infinity
	now := fs.e.now
	for _, c := range fs.comps {
		if c.minAt != now {
			c.minT, c.minAt = earliestFinish(c.flows, now), now
		} else if c.minTaken {
			fs.solve.counts.minReused++
		}
		c.minTaken = true
		if c.minT < bestT {
			bestT = c.minT
		}
	}
	if fs.diffCheck {
		if want := earliestFinish(fs.active, now); math.Float64bits(float64(bestT)) != math.Float64bits(float64(want)) {
			panic(fmt.Sprintf("sim: earliest completion at t=%v from the component minima is %v, but a walk of every active flow gives %v",
				float64(now), float64(bestT), float64(want)))
		}
	}
	if bestT == Infinity {
		return
	}
	// At large scale, slightly uneven loads spread completions over
	// thousands of micro-instants, each costing a reallocation round.
	// Defer the completion event by a small relative slack so the whole
	// cohort retires in one batch; the ≤2% timing error is far below the
	// model's fidelity, and small simulations (where unit tests assert
	// exact times) are left untouched.
	if len(fs.active) > 1024 {
		bestT += Time(completionQuantum) + (bestT-fs.e.now)*Time(0.02)
	}
	fs.e.at(bestT, event{kind: evComplete, gen: fs.gen})
}

// earliestFinish is the earliest finish time, now + remaining/rate, over
// the flows with a positive rate, or Infinity if there is none.
func earliestFinish(flows []*flow, now Time) Time {
	bestT := Infinity
	for _, f := range flows {
		if f.rate <= 0 {
			continue
		}
		if t := now + Time(f.remaining/f.rate); t < bestT {
			bestT = t
		}
	}
	return bestT
}

// completeAll finishes every flow whose remaining bytes have drained.
// Stale events (from a superseded rate assignment) are ignored via the
// generation counter; finished flows are spliced out of their components,
// which are queued for a re-solve, and recycled into the flow pool once
// their completion side effects are scheduled.
func (fs *flowSet) completeAll(gen int64) {
	if gen != fs.gen || fs.dirty {
		// Stale, or a batch for this instant is already queued and will
		// reschedule completions itself.
		return
	}
	e := fs.e
	finished := fs.finBuf[:0]
	kept := fs.active[:0]
	for _, f := range fs.active {
		// Flows drained to (numerically) zero finish now. Batching of
		// near-simultaneous completions happens upstream: the completion
		// event is deferred slightly at large scale, so the whole cohort
		// has hit zero by the time it fires.
		if f.remaining <= 1e-9*math.Max(1, f.rate) {
			finished = append(finished, f)
		} else {
			kept = append(kept, f)
		}
	}
	fs.active = kept
	if len(finished) == 0 {
		fs.finBuf = finished[:0]
		return
	}
	// Partition maintenance: splice finished flows out of their
	// components, whose survivors' rates change.
	affected := fs.compScratch[:0]
	for _, f := range finished {
		c := f.comp
		f.comp = nil
		if c != nil && !c.visit {
			c.visit = true
			affected = append(affected, c)
		}
	}
	for _, c := range affected {
		c.visit = false
		c.minAt = -1
		keptF := c.flows[:0]
		for _, f := range c.flows {
			if f.comp != nil {
				keptF = append(keptF, f)
			}
		}
		c.flows = keptF
	}
	// Compact the crossing list of every resource a finished flow crossed,
	// once per batch, and queue it as changed.
	crossed := fs.resBuf[:0]
	for _, f := range finished {
		for _, r := range f.resources {
			if !r.st.compact {
				r.st.compact = true
				crossed = append(crossed, r)
			}
		}
	}
	for _, r := range crossed {
		st := &r.st
		st.compact = false
		keptF := st.flows[:0]
		for _, f := range st.flows {
			if f.comp != nil {
				keptF = append(keptF, f)
			}
		}
		st.flows = keptF
		st.stale = true
		r.comp.queue(r)
	}
	fs.resBuf = crossed[:0]
	for _, f := range finished {
		if e.tracer != nil {
			e.tracer.FlowEnd(e.now, f.seq)
		}
		if f.p != nil {
			f.p.Resume()
		}
		if f.fan != nil {
			e.at(e.now, event{kind: evFanDone, proc: f.fan})
		}
	}
	for _, c := range affected {
		fs.markCompDirty(c)
	}
	fs.compScratch = affected[:0]
	for _, f := range finished {
		fs.freeFlow(f)
	}
	fs.finBuf = finished[:0]
}

// closeResource releases a resource whose last crossing flow retired:
// its ownership, order entry, inMask flag and changed-list link are
// cleared, and with a tracer attached it gets a closing zero-rate sample.
func (fs *flowSet) closeResource(r *Resource) {
	r.comp = nil
	st := &r.st
	st.queued, st.next = false, nil
	st.inMask = false // its crossing list is empty: no bit to clear
	if st.ordered {
		st.ordered = false
		fs.solve.counts.closed++
		fs.solve.holes++
	}
	if fs.e.tracer != nil {
		fs.e.tracer.ResourceSample(fs.e.now, r, 0)
	}
}
