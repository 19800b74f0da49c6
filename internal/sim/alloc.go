// Max-min fair (water-filling) rate allocation. The solver here is the
// component-local core: components.go decides *which* flows to re-solve
// (the dirty connected components), this file computes their rates.
//
// Per-component solving is bitwise-identical to the historical global
// solver: every arithmetic operand (remaining capacities, crossing counts,
// fair shares) is local to one component, and flows are always iterated in
// insertion (flow.seq) order, so the sequence of heap operations a
// component sees is exactly the subsequence the global solve would have
// performed for it. The differential mode re-runs the global reference
// solver after every incremental batch and asserts the rates match bitwise.
//
// The fast solver (allocateFast) does less work than the reference for the
// same result:
//
//   - Set-up costs what changed since the last solve, not every crossing.
//     Each resource keeps its crossing list (resState.flows) across
//     solves: add appends the new flow, which keeps seq order, and
//     completeAll compacts each resource a finished flow crossed, once per
//     batch. That is the list the reference builds afresh, minus parked
//     flows, which the freezes skip because their rate is already 0. Each
//     flow caches its path facts when it starts (pathFacts: parked, the
//     two smallest capacities, the share floor), and each resource its
//     live crossing count and Σ bound(f,r). These are functions of the
//     lists and of the capacities only. A list change marks its resource
//     stale, and a capacity change must be followed by RecomputeResources
//     naming the resource (the contract on Resource.Capacity), which bumps
//     the flow set's capacity generation and so marks every cached fact
//     stale. A solve re-derives only stale facts, with the reference's
//     arithmetic in the reference's order, so every cached value is
//     bitwise what a fresh walk would give; the differential check
//     asserts exactly that before it compares rates.
//   - Set-up visits only the resources whose inputs changed. Each
//     component lists, through resState.next, the resources whose
//     crossing list changed (queued where stale is set: add and
//     completeAll) or whose order entry a merge handed back, and on a
//     second list the resources it claimed since its last solve. Set-up
//     admits those, closes the listed ones whose last crossing retired
//     (compacting the resource list only then), and appends the claimed
//     ones in first-crossing order (see byFirstCrossing). It visits every
//     resource instead when the component's last solve ran under another
//     capacity generation. An unvisited resource's crossing list,
//     capacity and generation are those of the solve that last admitted
//     it or left it out, so admit would re-derive the same live count,
//     bound, decision and key. Its water-fill state is set at its first
//     touch and keyed by a per-solve stamp (see touch): an ordered
//     resource starts at Capacity and live with its order entry
//     untouched, any other is out of the water-fill, which is bitwise
//     what admit would have set, so every pop, key and rate is unchanged.
//   - Rate samples are summed only for a tracer: nothing else reads them.
//   - Non-binding resources are never admitted. Every flow's rate
//     is at most bound(f,r) = max(the smallest capacity on its path other
//     than this crossing of r, 1e-12 × the largest capacity on its path):
//     the bottleneck's share is at most the key of every other resource on
//     the path, a key never exceeds its capacity, and the share floor is a
//     fraction of the bottleneck's own capacity. If r were popped with
//     unassigned flows, its capacity would be spent exactly on its flows'
//     rates, so a resource whose capacity exceeds Σ bound(f,r) over its
//     crossings (with a 1e-9 relative margin for rounding in the running
//     remCap subtraction and in the sum) is never a bottleneck. Left out,
//     it is never popped, so the other pops are unchanged. The smallest
//     capacity on a path has a bound of at least itself and always stays,
//     so every unassigned flow keeps an admitted resource. Pruned resources
//     keep their crossing lists, so tracer samples do not change. In
//     fabric-coupled components (one wide fabric, DRAM ports, memory
//     sockets) most resources are of this kind.
//   - A bottleneck's freezes collect the heap members they touch and
//     re-key each once afterwards, not once per crossing. The remCap
//     subtractions still run per crossing in the same order, so the keys
//     after the loop are the ones per-crossing re-keying would leave. A
//     member the freezes drained (no unassigned crossing left) leaves the
//     heap then; the reference would pop its stale entry later and skip
//     it, so the pops it acts on are the same.
//   - The share heap holds only what the solve re-keys. Each component
//     keeps order, its admitted resources sorted by (initial share,
//     resource id), across solves; the initial share of r is
//     Capacity/live. Set-up keeps an entry in place when its resource is
//     still admitted and its key is bitwise unchanged, sorts only the
//     rest (claimed, stale, of a new capacity generation, or handed back
//     by a merge) and merges them into order from the back, filtering
//     order first only if it unflagged an entry. A solve pops
//     the smaller of the first untouched order entry and the heap's top.
//     A member's first touch moves it from order to the (4-ary, indexed)
//     heap, or marks it out if the freezes drained it. Untouched entries
//     still hold their current key, and the heap holds the current key of
//     every touched member, so the smaller of the two is the minimum over
//     every member. Because (share, resource id) is a strict total order,
//     that minimum is what one heap of every member would pop, whatever
//     its shape, so neither the split, the deferred re-keys, the removals
//     nor the arity change the pop sequence.
//   - A freeze charges only the admitted crossings. Each flow keeps a mask
//     with bit i set exactly when resources[i] is ordered, that is, in the
//     water-fill; crossings past the mask's 64 bits are walked as before.
//     A charge on a resource outside the water-fill did nothing but mark
//     it out, and nothing reads that mark, so visiting the set bits in
//     path order leaves pend, every heap operation, every pop and every
//     rate as they were. The bits move only when an admission really
//     changes: resState.inMask records what the bits say, admit clears
//     them when it leaves out a resource whose bits are set, and
//     settleOrder sets them when it inserts a resource whose bits are
//     clear. A key-only re-key, or an entry a merge handed back and the
//     next solve re-admitted, walks nothing. add sets a new flow's bits
//     from the inMask of the resources already owned; a claimed resource
//     was closed, and closing clears inMask, so its bits start clear.
//   - The completion schedule reuses the solve's minima. The freezes take
//     each component's earliest finish time, now + remaining/rate, where
//     they set the rate, with the expression scheduleCompletion uses, so
//     the value is bitwise the same. scheduleCompletion walks only the
//     components neither solved nor walked at the current instant: the
//     others' rates and remaining bytes have not moved since their
//     minimum was taken (add and completeAll invalidate it), and a
//     minimum over bitwise-equal values is the same in any grouping.

package sim

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// AllocStats are cumulative allocator counters, exposed for benchmarks,
// tracing, and tests.
type AllocStats struct {
	// Recomputes counts dirty-batch solves (deferred same-instant batches
	// plus explicit RecomputeResources calls that had work).
	Recomputes int64 `json:"recompute_batches"`
	// ComponentsSolved counts individual component water-filling solves.
	ComponentsSolved int64 `json:"components_solved"`
	// FlowsSolved totals the flows visited across all component solves —
	// the incremental analogue of the old recompute-work counter.
	FlowsSolved int64 `json:"flows_solved"`
	// Merges counts component unions caused by a new flow bridging them.
	Merges int64 `json:"merges"`
	// Splits is always 0: components only merge (see components.go). The
	// field stays because the host benchmark reports it and the pinned
	// golden reports carry its "splits" key.
	Splits int64 `json:"splits"`
	// ParkedFlows counts solve visits that found a flow crossing a
	// zero-capacity resource and held its rate at 0.
	ParkedFlows int64 `json:"parked_flows"`
	// PeakComponents is the high-water mark of live components.
	PeakComponents int `json:"peak_components"`
	// DiffChecks counts differential-mode verifications that passed.
	DiffChecks int64 `json:"diff_checks,omitempty"`
}

// SetDifferentialCheck toggles the allocator self-check: after every
// incremental batch solve, the global reference solver is run over the
// whole active set and every flow's rate is asserted bitwise-identical.
// This is the correctness oracle for the incremental allocator; it makes
// every recompute O(total flows) again, so it is for tests and debugging,
// not production runs. Also enabled by the UNIVISTOR_SIM_DIFFCHECK
// environment variable.
func (e *Engine) SetDifferentialCheck(on bool) { e.flows.diffCheck = on }

// AllocStats returns a snapshot of the cumulative allocator counters.
func (e *Engine) AllocStats() AllocStats { return e.flows.stats }

// shareEntry is a lazy-heap entry for the water-filling allocator.
type shareEntry struct {
	share float64
	res   *Resource
	ver   int
}

type shareHeap []shareEntry

func (h shareHeap) Len() int { return len(h) }
func (h shareHeap) Less(i, j int) bool {
	if h[i].share != h[j].share {
		return h[i].share < h[j].share
	}
	return h[i].res.id < h[j].res.id
}
func (h shareHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *shareHeap) Push(x any)   { *h = append(*h, x.(shareEntry)) }
func (h *shareHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refState is the reference solver's per-resource working state, kept in
// its own map so the oracle shares no solver state with allocateFast.
type refState struct {
	remCap float64
	remCnt int
	ver    int
	gen    int64 // refSolver.gen of the solve that last reset it
	flows  []*flow
}

// refSolver holds allocateRef's reusable buffers; gen stamps its states
// per solve.
type refSolver struct {
	states  map[*Resource]*refState
	touched []*Resource
	heap    shareHeap
	gen     int64
}

// allocateRef is the reference max-min fair (water-filling) solver — the
// historical global implementation, kept verbatim (map-keyed resource
// states, container/heap, every path fact re-derived per solve) as the
// independent oracle of the differential check. Flows must be in
// ascending flow.seq order. Bottleneck selection uses a lazy min-heap of
// fair shares, so a solve costs O(E log R) in the total flow-resource
// degree E of the set. Flows crossing a zero-capacity resource are held at
// rate 0 and excluded from the water-fill. Rates land in flow.refRate; no
// engine state is disturbed.
func (rs *refSolver) allocateRef(flows []*flow) {
	if rs.states == nil {
		rs.states = make(map[*Resource]*refState, 64)
	}
	rs.gen++
	gen := rs.gen
	states := rs.states
	touched := rs.touched[:0]
	ensure := func(r *Resource) *refState {
		st := states[r]
		if st == nil {
			st = &refState{}
			states[r] = st
		}
		if st.gen != gen {
			st.gen = gen
			st.remCap = r.Capacity
			st.remCnt = 0
			st.ver = 0
			st.flows = st.flows[:0]
			touched = append(touched, r)
		}
		return st
	}
	unassigned := 0
	for _, f := range flows {
		parked := false
		for _, r := range f.resources {
			if r.Capacity <= 0 {
				parked = true
				break
			}
		}
		if parked {
			f.refRate = 0
			continue
		}
		f.refRate = -1 // unassigned
		unassigned++
		for _, r := range f.resources {
			st := ensure(r)
			st.remCnt++
			st.flows = append(st.flows, f)
		}
	}
	rs.touched = touched
	h := rs.heap[:0]
	for _, r := range touched {
		st := states[r]
		if st.remCnt > 0 {
			h = append(h, shareEntry{share: st.remCap / float64(st.remCnt), res: r, ver: 0})
		}
	}
	heap.Init(&h)
	defer func() { rs.heap = h[:0] }()
	for unassigned > 0 && h.Len() > 0 {
		e := heap.Pop(&h).(shareEntry)
		st := states[e.res]
		if e.ver != st.ver || st.remCnt == 0 {
			continue // stale entry
		}
		// Floor the share so rounding in earlier rounds can never produce a
		// zero rate, which would stall a flow forever.
		share := e.share
		if min := e.res.Capacity * 1e-12; share < min {
			share = min
		}
		// Freeze every unassigned flow crossing the bottleneck, charging its
		// rate to its other resources and refreshing their heap entries.
		for _, f := range st.flows {
			if f.refRate >= 0 {
				continue
			}
			f.refRate = share
			unassigned--
			for _, r := range f.resources {
				ost := states[r]
				ost.remCap -= share
				if ost.remCap < 0 {
					ost.remCap = 0
				}
				ost.remCnt--
				ost.ver++
				if r != e.res && ost.remCnt > 0 {
					heap.Push(&h, shareEntry{share: ost.remCap / float64(ost.remCnt), res: r, ver: ost.ver})
				}
			}
		}
	}
}

// resState is a resource's solver state, embedded in its Resource. The
// crossing list and the live count and bound derived from it persist
// across solves; the rest is per-solve scratch.
type resState struct {
	// flows lists the active flows crossing the resource, once per
	// crossing, in ascending flow.seq order: add appends, and completeAll
	// compacts once per batch. A flow crossing the resource several times
	// appears consecutively.
	flows []*flow
	// live counts the crossings of unparked flows, and bound is Σ
	// bound(f,r) over them (see allocateFast). Both hold while !stale and
	// capGen is the flow set's capacity generation.
	live   int
	bound  float64
	capGen int64
	// cap is Capacity as of capGen, taken when the resource is claimed or
	// the generation moves. The differential check compares it with
	// Capacity to catch a mutation that skipped RecomputeResources.
	cap float64
	// next links the owning component's changed or fresh list (see
	// allocateFast). queued marks a resource on the changed list, and
	// fresh one on the fresh list, claimed since the component's last
	// solve; compact marks one queued in completeAll.
	next                   *Resource
	stale                  bool // the crossing list changed since live and bound were set
	queued, fresh, compact bool
	// pend marks a member already queued for re-keying after the current
	// bottleneck's freezes.
	pend bool
	// ordered marks that the owning component's order holds an entry for
	// the resource, whose key is key: Capacity/float64(live) as of the
	// solve that inserted it. inMask marks that the mask bit of every
	// crossing in flows is set (see flipMask); after a solve it equals
	// ordered.
	ordered, inMask bool
	key             float64

	// Water-fill state of the solve whose solveScratch.stamp is stamp,
	// set by admit or at the resource's first touch (see touch). heapPos
	// is the resource's slot in the share heap, inOrder while its order
	// entry is untouched, or outOfHeap. remCnt is an int32 beside heapPos
	// so that a Resource keeps its allocation size class.
	stamp   int64
	heapPos int32
	remCnt  int32
	remCap  float64
}

// Values of resState.heapPos other than a heap slot.
const (
	outOfHeap int32 = -1 // not admitted, popped or drained: never read again
	inOrder   int32 = -2 // admitted, and its order entry is still untouched
)

// pathFacts caches what the solver reads of the flow's path: whether it
// crosses a zero-capacity resource, its two smallest capacities (with
// multiplicity) and its share floor, 1e-12 × the largest. add derives
// them, and a solve re-derives them once the capacity generation moves.
func (f *flow) pathFacts(gen int64) {
	parked := false
	min1, min2, maxCap := math.Inf(1), math.Inf(1), 0.0
	for _, r := range f.resources {
		c := r.Capacity
		if c <= 0 {
			parked = true
			break
		}
		if c < min1 {
			min1, min2 = c, min1
		} else if c < min2 {
			min2 = c
		}
		if c > maxCap {
			maxCap = c
		}
	}
	f.parked, f.min1, f.min2, f.floor, f.factsGen = parked, min1, min2, maxCap*1e-12, gen
}

// crossingBound derives the live crossing count and Σ bound(f,r) from r's
// crossing list and its flows' path facts, in list order.
func crossingBound(r *Resource) (live int, bound float64) {
	for _, f := range r.st.flows {
		if f.parked {
			continue
		}
		live++
		b := f.min1
		if r.Capacity == f.min1 {
			b = f.min2 // this crossing is (one of) the path's smallest
		}
		bound += max(b, f.floor)
	}
	return live, bound
}

// sampleRates reports the post-solve allocated rate of every given
// resource to the tracer as a ResourceSample. A flow whose path crosses
// the same resource several times appears consecutively in the crossing
// list and is counted once. Nothing in the simulation reads these rates,
// so the walk runs only with a tracer attached.
func (fs *flowSet) sampleRates(tr Tracer, resources []*Resource) {
	for _, r := range resources {
		used := 0.0
		var prev *flow
		for _, f := range r.st.flows {
			if f == prev {
				continue // repeat crossing of the same flow
			}
			prev = f
			if f.rate > 0 {
				used += f.rate
			}
		}
		tr.ResourceSample(fs.e.now, r, used)
	}
}

// fastEntry is one slot of the fast path's indexed share heap. The
// resource id is copied inline so tie-breaks never chase the resource
// pointer.
type fastEntry struct {
	share float64
	id    int64
	res   *Resource
}

// before is the share order: (share, resource id), a strict total order
// because resource ids are unique.
func (a *fastEntry) before(b *fastEntry) bool {
	if a.share != b.share {
		return a.share < b.share
	}
	return a.id < b.id
}

// fastHeap is the fast path's share min-heap of the members a solve has
// re-keyed: the same (share, resource id) comparator as shareHeap, but
// *indexed* — each resource holds at most one entry whose key is updated
// in place (resState.heapPos), so the heap stays bounded by the live
// resource count instead of accumulating one lazy entry per water-fill
// step. The reference solver's lazy heap skips every stale entry it pops,
// so the first valid entry it acts on is the minimum over current shares
// — exactly what this heap and the component's order together pop — and
// the share value both read is computed from the same remCap/remCnt
// operands, keeping results bitwise identical. It is 4-ary (children of
// i are 4i+1..4i+4): half the levels of a binary heap for pop and down,
// at the cost of more comparisons per level.
type fastHeap []fastEntry

const fastHeapArity = 4

func (h *fastHeap) push(e fastEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// up and down move the entry at i through a hole: the entries it passes
// shift one level, and it is written once, at its final slot.
func (h fastHeap) up(i int) {
	x := h[i]
	for i > 0 {
		p := (i - 1) / fastHeapArity
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].res.st.heapPos = int32(i)
		i = p
	}
	h[i] = x
	x.res.st.heapPos = int32(i)
}

func (h fastHeap) down(i int) {
	x := h[i]
	i = h.sink(i, &x)
	h[i] = x
	x.res.st.heapPos = int32(i)
}

// sink walks the hole at i down along the smaller children while they
// order before x (all the way to a leaf when x is nil), shifting each up
// one level, and returns the hole's final slot.
func (h fastHeap) sink(i int, x *fastEntry) int {
	n := len(h)
	for {
		c := fastHeapArity*i + 1
		if c >= n {
			return i
		}
		m := c
		end := min(c+fastHeapArity, n)
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if x != nil && !h[m].before(x) {
			return i
		}
		h[i] = h[m]
		h[i].res.st.heapPos = int32(i)
		i = m
	}
}

func (h *fastHeap) pop() fastEntry {
	top := (*h)[0]
	h.remove(0)
	return top
}

// remove deletes the entry at position i bottom-up: the hole sinks to a
// leaf, and the last entry fills it and moves up. The last entry usually
// belongs near the bottom, so this skips comparing it on the way down.
func (h *fastHeap) remove(i int) {
	hh := *h
	hh[i].res.st.heapPos = -1
	n := len(hh) - 1
	last := hh[n]
	*h = hh[:n]
	if i == n {
		return
	}
	i = hh[:n].sink(i, nil)
	hh[i] = last
	hh[:n].up(i)
}

// update re-keys the entry at position i and restores heap order.
func (h fastHeap) update(i int, share float64) {
	old := h[i].share
	h[i].share = share
	if share < old {
		h.up(i)
	} else if share > old {
		h.down(i)
	}
}

// solveScratch is allocateFast's reusable state: the share-heap, re-key
// and order-insertion buffers, the solve stamp, and host-side diagnostic
// counters.
type solveScratch struct {
	heap  fastHeap
	pend  []*Resource
	moved []*Resource
	// stamp numbers the solves; a resource whose resState.stamp differs
	// has no water-fill state of the current solve yet.
	stamp int64
	// holes counts the order entries the current solve unflagged, which
	// settleOrder must filter out.
	holes int
	// counts are cumulative diagnostics for tests, not simulation results,
	// so they are not part of AllocStats.
	counts solveCounts
}

// solveCounts counts what allocateFast's set-up did with each resource,
// and which set-up each solve ran.
type solveCounts struct {
	pruned   int64 // kept out of the share heap as non-binding
	skipped  int64 // resources a changed-only set-up left unvisited
	moved    int64 // resources (re)inserted into an order
	dropped  int64 // order entries of resources no longer admitted
	absorbed int64 // order entries a merge handed back for re-insertion
	closed   int64 // ordered resources closed

	changedOnly   int64 // solves whose set-up visited only changed resources
	full          int64 // solves whose set-up visited every resource
	changedClosed int64 // resources closed by a changed-only set-up
	mixedMerges   int64 // merges of components last solved under different generations

	maskOn, maskOff int64 // crossings whose mask bits a flip set or cleared
	minReused       int64 // component minima a later scheduleCompletion of the same instant took again
}

// admit takes r, which its component's set-up visits, off the changed
// list. If r's last crossing retired, it reports that and does nothing
// else, leaving r to be closed. Otherwise it brings r's live crossing
// count and bound up to date for capacity generation gen and admits r to
// the water-fill of the solve stamped stamp, unless no unparked flow
// crosses it or it is non-binding. An admitted resource keeps its order
// entry if its key, the initial share, is bitwise unchanged; otherwise it
// is queued in moved for insertion, and its old entry, if any, is dropped.
// A resource left out has its crossings' mask bits cleared, if set.
func (sc *solveScratch) admit(r *Resource, gen, stamp int64) (retired bool) {
	st := &r.st
	st.queued, st.next = false, nil
	if len(st.flows) == 0 {
		return true
	}
	if st.capGen != gen {
		st.capGen = gen
		st.cap = r.Capacity
		st.stale = true
	}
	if st.stale {
		st.live, st.bound = crossingBound(r)
		st.stale = false
	}
	st.stamp = stamp
	st.heapPos = outOfHeap
	if !binding(r, st.live, st.bound) {
		if st.live > 0 {
			sc.counts.pruned++
		}
		if st.inMask {
			sc.flipMask(r, false)
		}
		if st.ordered {
			st.ordered = false
			sc.counts.dropped++
			sc.holes++
		}
		return false
	}
	st.remCap = r.Capacity
	st.remCnt = int32(st.live)
	st.heapPos = inOrder
	key := st.remCap / float64(st.remCnt)
	if st.ordered {
		if key == st.key {
			return false
		}
		st.ordered = false
		sc.holes++
	}
	st.key = key
	sc.moved = append(sc.moved, r)
	return false
}

// binding is the admission test: some unparked flow crosses r, and r's
// capacity does not exceed Σ bound(f,r) over its live crossings with a
// 1e-9 relative margin (see the file comment).
func binding(r *Resource, live int, bound float64) bool {
	return live > 0 && !(r.Capacity > bound*(1+1e-9))
}

// touch returns r's water-fill state for the solve stamped stamp, setting
// it at the first touch of a resource set-up did not visit. Such a
// resource's crossing list, capacity and generation are those of the
// solve that last admitted it or left it out, so admit would set exactly
// this: an ordered resource starts at its capacity and live count with its
// order entry untouched, and any other is out of the water-fill.
func (r *Resource) touch(stamp int64) *resState {
	st := &r.st
	if st.stamp != stamp {
		st.stamp = stamp
		st.heapPos = outOfHeap
		if st.ordered {
			st.heapPos, st.remCap, st.remCnt = inOrder, r.Capacity, int32(st.live)
		}
	}
	return st
}

// byKey sorts resources the way a component's order is sorted: by key,
// then resource id.
func byKey(a, b *Resource) int {
	if a.st.key != b.st.key {
		if a.st.key < b.st.key {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// maskBits is the number of path positions a flow's mask covers.
const maskBits = 64

// flipMask sets (on) or clears the mask bit of every crossing of r, for
// r's admission to the water-fill changed, and records it in inMask.
// Crossings at a path position of maskBits or more have no bit.
func (sc *solveScratch) flipMask(r *Resource, on bool) {
	st := &r.st
	st.inMask = on
	for _, f := range st.flows {
		for i, x := range f.resources[:min(len(f.resources), maskBits)] {
			if x == r {
				if on {
					f.mask |= 1 << i
				} else {
					f.mask &^= 1 << i
				}
			}
		}
	}
	if on {
		sc.counts.maskOn += int64(len(st.flows))
	} else {
		sc.counts.maskOff += int64(len(st.flows))
	}
}

// settleOrder drops the entries of order whose resource is no longer
// ordered, if the solve unflagged any, then merges moved, sorted by
// byKey, into it from the back, in place, marking each moved resource
// ordered and, if its crossings' mask bits are clear, setting them.
func (sc *solveScratch) settleOrder(order []fastEntry) []fastEntry {
	moved := sc.moved
	slices.SortFunc(moved, byKey)
	sc.counts.moved += int64(len(moved))
	n := len(order)
	kept := order
	if sc.holes > 0 {
		kept = order[:0]
		for _, e := range order {
			if e.res.st.ordered {
				kept = append(kept, e)
			}
		}
	}
	i := len(kept) - 1
	order = slices.Grow(kept, len(moved))[:len(kept)+len(moved)]
	if n > len(order) {
		clear(order[len(order):n]) // hold no dropped resource
	}
	for j, k := len(moved)-1, len(order)-1; j >= 0; k-- {
		r := moved[j]
		m := fastEntry{share: r.st.key, id: r.id, res: r}
		if i >= 0 && m.before(&order[i]) {
			order[k] = order[i]
			i--
		} else {
			order[k] = m
			r.st.ordered = true
			if !r.st.inMask {
				sc.flipMask(r, true)
			}
			j--
		}
	}
	sc.moved = moved[:0]
	return order
}

// allocateFast water-fills component c: identical arithmetic and
// bottleneck ordering to allocateRef, but the per-resource solve state is
// embedded in the Resource instead of kept in a map, and the share heap
// is monomorphic — together removing hashing and per-push boxing from
// the hot loop. The differential mode cross-checks its output against
// allocateRef bitwise. It also skips the work that cannot change a rate:
// set-up visits only the resources whose inputs changed, and re-derives
// only the path facts, bounds and order entries that did; non-binding
// resources stay out of the water-fill, a freeze charges only the
// crossings its flow's mask marks as admitted (and any past the mask),
// only the members a bottleneck touched enter the heap, each re-keyed
// once, and drained members leave at once (see the file comment for why
// each is exact). Its set-up also settles c.resources and the masks, and
// its freezes take c's earliest finish time for scheduleCompletion. Every
// crossing list must be current.
func (fs *flowSet) allocateFast(c *component) {
	sc := &fs.solve
	gen := fs.capGen
	sc.stamp++
	stamp := sc.stamp
	sc.holes = 0
	unassigned := 0
	for _, f := range c.flows {
		if f.factsGen != gen {
			f.pathFacts(gen)
		}
		if f.parked {
			f.rate = 0
			fs.stats.ParkedFlows++
			continue
		}
		f.rate = -1 // unassigned
		unassigned++
	}
	// Admit the changed resources, or every one after a generation move,
	// walking the resource list (a slice walk beats following the links),
	// and count those whose last crossing retired.
	closing := 0
	if c.solvedGen == gen {
		visited := 0
		for r := c.changed; r != nil; visited++ {
			next := r.st.next
			if sc.admit(r, gen, stamp) {
				closing++
			}
			r = next
		}
		sc.counts.changedOnly++
		sc.counts.skipped += int64(len(c.resources) - visited)
		sc.counts.changedClosed += int64(closing)
	} else {
		for _, r := range c.resources {
			if sc.admit(r, gen, stamp) {
				closing++
			}
		}
		c.solvedGen = gen
		sc.counts.full++
	}
	c.changed = nil
	if closing > 0 {
		kept := c.resources[:0]
		for _, r := range c.resources {
			if len(r.st.flows) == 0 {
				fs.closeResource(r)
			} else {
				kept = append(kept, r)
			}
		}
		c.resources = kept
	}
	fresh := fs.resBuf[:0]
	for r := c.fresh; r != nil; {
		next := r.st.next
		r.st.fresh = false
		sc.admit(r, gen, stamp) // a claimed resource has a crossing
		fresh = append(fresh, r)
		r = next
	}
	c.fresh = nil
	// The list runs newest claim first. Claim order is nearly
	// first-crossing order, which the sort handles fastest.
	slices.Reverse(fresh)
	slices.SortFunc(fresh, byFirstCrossing)
	c.resources = append(c.resources, fresh...)
	fs.resBuf = fresh[:0]
	c.order = sc.settleOrder(c.order)
	order, next := c.order, 0
	h, pend := sc.heap[:0], sc.pend[:0]
	now, minT := fs.e.now, Infinity
	for unassigned > 0 {
		for next < len(order) {
			if st := &order[next].res.st; st.stamp != stamp || st.heapPos == inOrder {
				break
			}
			next++ // touched: in the heap, popped or drained
		}
		var e fastEntry
		if next < len(order) && (len(h) == 0 || order[next].before(&h[0])) {
			e = order[next]
			e.res.st.stamp = stamp
			e.res.st.heapPos = outOfHeap
			next++
		} else if len(h) > 0 {
			e = h.pop()
		} else {
			break
		}
		share := e.share
		if min := e.res.Capacity * 1e-12; share < min {
			share = min
		}
		for _, f := range e.res.st.flows {
			if f.rate >= 0 {
				continue
			}
			f.rate = share
			if t := now + Time(f.remaining/share); t < minT {
				minT = t
			}
			unassigned--
			// Charge the admitted crossings in path order: those the mask
			// marks, then every crossing past the mask's reach.
			m, tail := f.mask, maskBits
			for {
				var r *Resource
				if m != 0 {
					r = f.resources[bits.TrailingZeros64(m)]
					m &= m - 1
				} else if tail < len(f.resources) {
					r = f.resources[tail]
					tail++
				} else {
					break
				}
				ost := r.touch(stamp)
				if ost.heapPos == outOfHeap {
					continue // never read again this solve
				}
				ost.remCap -= share
				if ost.remCap < 0 {
					ost.remCap = 0
				}
				ost.remCnt--
				if !ost.pend {
					ost.pend = true
					pend = append(pend, r)
				}
			}
		}
		for _, r := range pend {
			ost := &r.st
			ost.pend = false
			switch {
			case ost.remCnt == 0 && ost.heapPos == inOrder:
				ost.heapPos = outOfHeap // drained at its first touch
			case ost.remCnt == 0:
				h.remove(int(ost.heapPos)) // drained: every crossing is frozen
			case ost.heapPos == inOrder:
				h.push(fastEntry{share: ost.remCap / float64(ost.remCnt), id: r.id, res: r})
			default:
				h.update(int(ost.heapPos), ost.remCap/float64(ost.remCnt))
			}
		}
		pend = pend[:0]
	}
	sc.heap, sc.pend = h[:0], pend
	c.minT, c.minAt, c.minTaken = minT, now, false
}

// verifyIncremental is the differential mode: after an incremental batch
// it checks that the flows stand at the current instant and the state the
// solver keeps across solves (verifyCaches), certifies the rates max-min
// fair (verifyMaxMin), then re-solves the entire active set with the
// global reference solver (into flow.refRate) and asserts every rate is
// bitwise-identical to the incremental result. A mismatch is a bug in the
// partition or cache maintenance; it panics with the diverging flow or
// resource.
func (fs *flowSet) verifyIncremental() {
	if fs.last != fs.e.now {
		panic(fmt.Sprintf("sim: flows advanced to t=%v but the clock is at t=%v", float64(fs.last), float64(fs.e.now)))
	}
	fs.verifyCaches()
	if len(fs.active) == 0 {
		fs.stats.DiffChecks++
		return
	}
	fs.verifyMaxMin()
	fs.ref.allocateRef(fs.active)
	for _, f := range fs.active {
		if f.refRate != f.rate {
			panic(fmt.Sprintf(
				"sim: differential allocator check failed at t=%v: flow seq=%d remaining=%g path=%v: incremental rate %v != global reference %v",
				float64(fs.e.now), f.seq, f.remaining, pathNames(f), f.rate, f.refRate))
		}
	}
	fs.stats.DiffChecks++
}

// verifyMaxMin certifies the rates of the active flows with the two
// conditions that characterize a max-min fair allocation, sharing no
// water-fill order with either solver: every resource carries at most its
// capacity, and every flow not parked on a zero-capacity resource crosses
// a saturated resource on which no flow gets a higher rate. A flow's rate
// is charged once per crossing, as the solvers charge it, and both
// conditions hold within a 1e-9 relative margin for rounding.
func (fs *flowSet) verifyMaxMin() {
	const margin = 1e-9
	used := make(map[*Resource]float64)
	top := make(map[*Resource]float64)
	for _, f := range fs.active {
		for _, r := range f.resources {
			used[r] += f.rate
			top[r] = max(top[r], f.rate)
		}
	}
	for _, f := range fs.active {
		for _, r := range f.resources {
			if used[r] > r.Capacity*(1+margin) {
				panic(fmt.Sprintf("sim: max-min certificate failed at t=%v: resource %q carries %v B/s over a capacity of %v B/s",
					float64(fs.e.now), r.Name, used[r], r.Capacity))
			}
		}
	}
	for _, f := range fs.active {
		if slices.ContainsFunc(f.resources, func(r *Resource) bool { return r.Capacity <= 0 }) {
			continue // parked
		}
		if !slices.ContainsFunc(f.resources, func(r *Resource) bool {
			return used[r] >= r.Capacity*(1-margin) && top[r] <= f.rate*(1+margin)
		}) {
			panic(fmt.Sprintf("sim: max-min certificate failed at t=%v: flow seq=%d path=%v at rate %v crosses no saturated resource on which it has the highest rate",
				float64(fs.e.now), f.seq, pathNames(f), f.rate))
		}
	}
}

// verifyCaches asserts that what the solver caches across solves equals
// a fresh derivation. For every live resource whose state is of the
// current capacity generation, Capacity must not have moved since (the
// mutate-then-recompute contract of Resource.Capacity); every current
// flow's path facts must equal a fresh walk of its path; every live
// resource's crossing list must be exactly the active flows crossing it,
// in seq order; no component may still list a changed or fresh resource,
// nor hold a resource that is stale, queued, fresh or, if the component's
// last solve ran under the current generation, of another generation;
// every current live count and bound must equal a fresh recompute, every
// ordered flag a fresh admission decision, and every inMask flag the
// ordered flag; every active flow's mask must mark exactly the crossings
// within its reach whose resource is ordered; and every component's order
// must be sorted, complete and current (verifyOrder).
func (fs *flowSet) verifyCaches() {
	gen := fs.capGen
	for _, c := range fs.comps {
		for _, r := range c.resources {
			if r.st.capGen == gen && r.Capacity != r.st.cap {
				panic(fmt.Sprintf(
					"sim: resource %q capacity changed from %v to %v at t=%v without RecomputeResources",
					r.Name, r.st.cap, r.Capacity, float64(fs.e.now)))
			}
		}
	}
	crossings := make(map[*Resource][]*flow)
	for _, f := range fs.active {
		if f.factsGen == gen {
			walk := flow{resources: f.resources}
			walk.pathFacts(gen)
			if walk.parked != f.parked || walk.min1 != f.min1 || walk.min2 != f.min2 || walk.floor != f.floor {
				panic(fmt.Sprintf(
					"sim: cached path facts of flow seq=%d path=%v (parked=%v min=%v,%v floor=%v) != a fresh walk (parked=%v min=%v,%v floor=%v)",
					f.seq, pathNames(f), f.parked, f.min1, f.min2, f.floor, walk.parked, walk.min1, walk.min2, walk.floor))
			}
		}
		for _, r := range f.resources {
			crossings[r] = append(crossings[r], f)
		}
	}
	for _, c := range fs.comps {
		if c.changed != nil || c.fresh != nil {
			panic(fmt.Sprintf("sim: component %d still lists changed or fresh resources after its batch", c.id))
		}
		for _, r := range c.resources {
			st := &r.st
			want, ok := crossings[r]
			delete(crossings, r) // a second listing of r then fails below
			if r.comp != c || !ok || !slices.Equal(st.flows, want) {
				panic(fmt.Sprintf("sim: resource %q: crossing list of %d flows (owned by its component: %v) != the %d active crossings",
					r.Name, len(st.flows), r.comp == c, len(want)))
			}
			if st.stale || st.queued || st.fresh || (c.solvedGen == gen && st.capGen != gen) {
				panic(fmt.Sprintf("sim: resource %q of component %d is stale=%v queued=%v fresh=%v or of generation %d (component solved under %d, current %d) after its batch",
					r.Name, c.id, st.stale, st.queued, st.fresh, st.capGen, c.solvedGen, gen))
			}
			n, b := crossingBound(r)
			if st.capGen == gen && (n != st.live || b != st.bound) {
				panic(fmt.Sprintf("sim: resource %q: cached live count %d and bound %v != recomputed %d and %v",
					r.Name, st.live, st.bound, n, b))
			}
			if binding(r, n, b) != st.ordered {
				panic(fmt.Sprintf("sim: resource %q: flagged ordered=%v, but a fresh admission over %d live crossings (bound %v, capacity %v) says %v",
					r.Name, st.ordered, n, b, r.Capacity, !st.ordered))
			}
			if st.inMask != st.ordered {
				panic(fmt.Sprintf("sim: resource %q: flagged inMask=%v but ordered=%v after its batch", r.Name, st.inMask, st.ordered))
			}
		}
	}
	for _, f := range fs.active {
		var want uint64
		for i, r := range f.resources[:min(len(f.resources), maskBits)] {
			if r.st.ordered {
				want |= 1 << i
			}
		}
		if f.mask != want {
			panic(fmt.Sprintf("sim: flow seq=%d path=%v: mask %b != its crossings' ordered flags %b",
				f.seq, pathNames(f), f.mask, want))
		}
	}
	for r := range crossings {
		panic(fmt.Sprintf("sim: resource %q is crossed by an active flow but owned by no component", r.Name))
	}
	for _, c := range fs.comps {
		verifyOrder(c, gen)
	}
}

// verifyOrder asserts that c's order is strictly ascending by (key, id)
// and lists exactly the resources c owns and flags ordered, so each of
// them once; that each entry carries its resource's cached key; and that
// the key of a resource whose live count is current is bitwise
// Capacity/float64(live).
func verifyOrder(c *component, gen int64) {
	ordered := 0
	for _, r := range c.resources {
		if r.st.ordered {
			ordered++
		}
	}
	for i := range c.order {
		e := &c.order[i]
		r, st := e.res, &e.res.st
		switch {
		case r.comp != c || !st.ordered || e.id != r.id:
			panic(fmt.Sprintf("sim: order of component %d lists resource %q (owned: %v, flagged ordered: %v)",
				c.id, r.Name, r.comp == c, st.ordered))
		case i > 0 && !c.order[i-1].before(e):
			p := &c.order[i-1]
			panic(fmt.Sprintf("sim: order of component %d: entry %d (%q, key %v) does not follow entry %d (%q, key %v) in (key, id) order",
				c.id, i, r.Name, e.share, i-1, p.res.Name, p.share))
		case math.Float64bits(e.share) != math.Float64bits(st.key):
			panic(fmt.Sprintf("sim: order of component %d: entry of resource %q has key %v, but the resource caches %v",
				c.id, r.Name, e.share, st.key))
		case st.capGen == gen && math.Float64bits(e.share) != math.Float64bits(r.Capacity/float64(st.live)):
			panic(fmt.Sprintf("sim: order of component %d: resource %q has key %v, but capacity %v over %d live crossings is %v",
				c.id, r.Name, e.share, r.Capacity, st.live, r.Capacity/float64(st.live)))
		}
	}
	if ordered != len(c.order) {
		panic(fmt.Sprintf("sim: component %d flags %d resources ordered, but its order holds %d entries",
			c.id, ordered, len(c.order)))
	}
}

// pathNames lists the names of the resources on f's path.
func pathNames(f *flow) []string {
	names := make([]string, 0, len(f.resources))
	for _, r := range f.resources {
		names = append(names, r.Name)
	}
	return names
}
