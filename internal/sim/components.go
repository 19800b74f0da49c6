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
// solve (settleResources).
//
// Components are solved one after another on the dispatcher goroutine, in
// dirty-queue order. The paper's workloads couple most flows through one
// shared fabric, so a batch is usually one large component, and splitting
// the batch across goroutines would buy nothing.

package sim

import (
	"cmp"
	"math"
	"slices"
)

// component is one connected set of active flows and the resources they
// cross.
type component struct {
	id int64
	// flows is the component's active flow list in ascending flow.seq
	// order — the same relative order the global solver would visit them,
	// which keeps per-component solving bitwise-identical to it.
	flows []*flow
	// resources owned by this component (r.comp == c), each once: add
	// and merge append, and a solve drops those whose last crossing
	// retired (settleResources).
	resources []*Resource
	dirty     bool // queued in flowSet.dirtyComps
	dead      bool // merged away or drained; skip everywhere
	visit     bool // add()/completeAll dedup scratch
}

// add inserts a started flow into the active set and the partition:
// the components reachable through the flow's resources are unioned (the
// flow may bridge several), the flow joins each resource's crossing list,
// unowned resources are claimed, and the target component is queued for
// a same-instant batch solve.
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
		fs.compSeq++
		target = &component{id: fs.compSeq}
		fs.comps = append(fs.comps, target)
	case 1:
		target = found[0]
	default:
		target = fs.merge(found)
	}
	fs.compScratch = found[:0]
	target.flows = append(target.flows, f) // f.seq is the maximum: stays sorted
	f.comp = target
	for _, r := range f.resources {
		st := &r.st
		st.flows = append(st.flows, f) // f.seq is the maximum: stays sorted
		st.stale = true
		if r.comp == nil {
			r.comp = target
			target.resources = append(target.resources, r)
			st.fresh = true
			st.capGen = 0 // take Capacity afresh: no cached fact depends on it
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
		target.flows = mergeBySeq(target.flows, c.flows)
		for _, f := range c.flows {
			f.comp = target
		}
		for _, r := range c.resources {
			r.comp = target
		}
		target.resources = append(target.resources, c.resources...)
		c.dead = true
		c.dirty = false
	}
	fs.removeDead()
	return target
}

// mergeBySeq merges two flow lists each in ascending seq order. The first
// list's backing array is reused when the merge is a pure append.
func mergeBySeq(a, b []*flow) []*flow {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 || a[len(a)-1].seq < b[0].seq {
		return append(a, b...)
	}
	if b[len(b)-1].seq < a[0].seq {
		out := make([]*flow, 0, len(a)+len(b))
		out = append(out, b...)
		return append(out, a...)
	}
	out := make([]*flow, 0, len(a)+len(b))
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
	return append(out, b[j:]...)
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

// solveComponent water-fills one component and refreshes resource
// ownership and rate caches. A drained component (no flows left) is
// retired: its resources are closed out and it is removed from the live
// list.
func (fs *flowSet) solveComponent(c *component) {
	if len(c.flows) == 0 {
		for _, r := range c.resources {
			fs.closeResource(r)
		}
		c.resources = c.resources[:0]
		c.dead = true
		fs.removeDead()
		return
	}
	fs.stats.ComponentsSolved++
	fs.stats.FlowsSolved += int64(len(c.flows))
	fs.settleResources(c)
	sc := &fs.solve
	sc.allocateFast(c.flows, c.resources, fs.capGen)
	fs.stats.ParkedFlows += sc.parked
	sc.parked = 0
	fs.cacheRates(c.resources)
}

// settleResources closes c's resources whose last crossing flow retired
// and moves those claimed since c's last solve to the end of the list,
// ordered by first crossing: the lowest-seq flow crossing each, then the
// position on its path. That is the order in which a walk of c's flows
// first meets them, so a tracer registers new resources in the same
// order as when every solve re-derived the resource set by such a walk.
// The order of the other resources decides nothing: each one's rate,
// samples and heap key are its own.
func (fs *flowSet) settleResources(c *component) {
	kept := c.resources[:0]
	fresh := fs.resBuf[:0]
	for _, r := range c.resources {
		switch {
		case len(r.st.flows) == 0:
			fs.closeResource(r)
		case r.st.fresh:
			r.st.fresh = false
			fresh = append(fresh, r)
		default:
			kept = append(kept, r)
		}
	}
	slices.SortFunc(fresh, byFirstCrossing)
	c.resources = append(kept, fresh...)
	fs.resBuf = fresh[:0]
}

// byFirstCrossing orders resources by the seq of the first flow in their
// crossing lists, then by the position of their first crossing on that
// flow's path.
func byFirstCrossing(a, b *Resource) int {
	fa, fb := a.st.flows[0], b.st.flows[0]
	if fa != fb {
		return cmp.Compare(fa.seq, fb.seq)
	}
	return cmp.Compare(slices.Index(fa.resources, a), slices.Index(fa.resources, b))
}

// scheduleCompletion reschedules the single global completion event at
// the earliest finish time over the active flows. Every batch bumps the
// generation, superseding the previous event.
func (fs *flowSet) scheduleCompletion() {
	fs.gen++
	bestT := Infinity
	now := fs.e.now
	for _, f := range fs.active {
		if f.rate <= 0 {
			continue
		}
		if t := now + Time(f.remaining/f.rate); t < bestT {
			bestT = t
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
	fs.advance(e.now)
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
		keptF := c.flows[:0]
		for _, f := range c.flows {
			if f.comp != nil {
				keptF = append(keptF, f)
			}
		}
		c.flows = keptF
	}
	// Compact the crossing list of every resource a finished flow crossed,
	// once per batch.
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
	}
	fs.resBuf = crossed[:0]
	for _, f := range finished {
		if e.tracer != nil && f.traceID != 0 {
			e.tracer.FlowEnd(e.now, f.traceID)
		}
		if f.p != nil {
			f.p.Resume()
		}
		if f.done != nil {
			e.At(e.now, f.done)
		}
		if f.fan != nil {
			e.at(e.now, event{kind: evFanDone, fan: f.fan})
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
// ownership and caches are cleared, and with a tracer attached it gets a
// closing zero-rate sample.
func (fs *flowSet) closeResource(r *Resource) {
	r.comp = nil
	r.alloc = 0
	if fs.e.tracer != nil {
		fs.e.tracer.ResourceSample(fs.e.now, r, 0)
	}
}
