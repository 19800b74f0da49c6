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
//   - Non-binding resources never enter the share heap. Every flow's rate
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
//     so every unassigned flow keeps a heap resource. Pruned resources
//     keep their crossing lists: rate caches and tracer samples do not
//     change. In fabric-coupled components (one wide fabric, DRAM ports,
//     memory sockets) most resources are of this kind.
//   - A bottleneck's freezes collect the heap members they touch and
//     re-key each once afterwards, not once per crossing. The remCap
//     subtractions still run per crossing in the same order, so the keys
//     after the loop are the ones per-crossing re-keying would leave. A
//     member the freezes drained (no unassigned crossing left) leaves the
//     heap then; the reference would pop its stale entry later and skip
//     it, so the pops it acts on are the same.
//   - The heap is 4-ary. Because (share, resource id) is a strict total
//     order, the heap pops the same minimum whatever its shape, so neither
//     the deferred re-keys, the removals nor the arity change the pop
//     sequence.

package sim

import (
	"container/heap"
	"fmt"
	"math"
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
	cap   float64
	stale bool // the crossing list changed since live and bound were set
	// fresh marks a resource claimed since its component's last solve
	// (see settleResources); compact marks one queued in completeAll.
	fresh, compact bool

	// Water-fill state of the current solve. heapPos is the resource's
	// slot in the share heap, or -1 when not enqueued; pend marks a heap
	// member already queued for re-keying after the current bottleneck's
	// freezes.
	pend    bool
	heapPos int32
	remCap  float64
	remCnt  int
}

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

// cacheRates stores the post-solve allocated rate of every given
// resource on the resource itself (the cache Utilization reads). A flow
// whose path crosses the same resource several times appears consecutively
// in the crossing list and is counted once. With a tracer attached, the
// same values are reported as ResourceSamples, so Utilization and the
// recorded timeline always agree.
func (fs *flowSet) cacheRates(resources []*Resource) {
	e := fs.e
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
		r.alloc = used
		if e.tracer != nil {
			e.tracer.ResourceSample(e.now, r, used)
		}
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

// fastHeap is the fast path's share min-heap: the same (share, resource
// id) comparator as shareHeap, but *indexed* — each resource holds at
// most one entry whose key is updated in place (resState.heapPos), so
// the heap stays bounded by the live resource count instead of
// accumulating one lazy entry per water-fill step. The reference
// solver's lazy heap skips every stale entry it pops, so the first
// valid entry it acts on is the minimum over current shares — exactly
// what this heap pops — and the share value both read is computed from
// the same remCap/remCnt operands, keeping results bitwise identical.
// It is 4-ary (children of i are 4i+1..4i+4): half the levels of a binary
// heap for pop and down, at the cost of more comparisons per level.
type fastHeap []fastEntry

const fastHeapArity = 4

func (h fastHeap) init() {
	if len(h) < 2 {
		return
	}
	for i := (len(h) - 2) / fastHeapArity; i >= 0; i-- {
		h.down(i)
	}
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
	n := len(h)
	x := h[i]
	for {
		c := fastHeapArity*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+fastHeapArity, n)
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&x) {
			break
		}
		h[i] = h[m]
		h[i].res.st.heapPos = int32(i)
		i = m
	}
	h[i] = x
	x.res.st.heapPos = int32(i)
}

func (h *fastHeap) pop() fastEntry {
	top := (*h)[0]
	h.remove(0)
	return top
}

// remove deletes the entry at position i: the last entry fills its slot
// and moves up or down to restore heap order.
func (h *fastHeap) remove(i int) {
	hh := *h
	hh[i].res.st.heapPos = -1
	n := len(hh) - 1
	*h = hh[:n]
	if i == n {
		return
	}
	hh[i] = hh[n]
	if i > 0 && hh[i].before(&hh[(i-1)/fastHeapArity]) {
		hh[:n].up(i)
	} else {
		hh[:n].down(i)
	}
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

// solveScratch is allocateFast's reusable state: the share-heap and
// re-key buffers plus the parked-flow count the caller folds into the
// stats.
type solveScratch struct {
	heap   fastHeap
	pend   []*resState
	parked int64
	// pruned counts resources kept out of the share heap as non-binding,
	// cumulatively. It is a host-side diagnostic for tests, not a
	// simulation result, so it is not part of AllocStats.
	pruned int64
}

// allocateFast is the allocator's solver: identical arithmetic and
// bottleneck ordering to allocateRef, but the per-resource solve state is
// embedded in the Resource instead of kept in a map, and the share heap
// is monomorphic — together removing hashing and per-push boxing from
// the hot loop. The differential mode cross-checks its output against
// allocateRef bitwise. It also skips the work that cannot change a rate:
// set-up re-derives only the path facts and bounds whose inputs changed,
// non-binding resources stay out of the heap, each bottleneck re-keys the
// heap members it touched once, and drained members leave the heap at
// once (see the file comment for why each is exact).
//
// resources must be exactly the resources flows cross, each once, with
// their crossing lists current; gen is the flow set's capacity
// generation. Parked-flow visits are counted in sc.parked for the caller
// to fold into the stats.
func (sc *solveScratch) allocateFast(flows []*flow, resources []*Resource, gen int64) {
	unassigned := 0
	for _, f := range flows {
		if f.factsGen != gen {
			f.pathFacts(gen)
		}
		if f.parked {
			f.rate = 0
			sc.parked++
			continue
		}
		f.rate = -1 // unassigned
		unassigned++
	}
	h := sc.heap[:0]
	for _, r := range resources {
		st := &r.st
		if st.capGen != gen {
			st.capGen = gen
			st.cap = r.Capacity
			st.stale = true
		}
		if st.stale {
			st.live, st.bound = crossingBound(r)
			st.stale = false
		}
		st.heapPos = -1
		if st.live == 0 {
			continue
		}
		if r.Capacity > st.bound*(1+1e-9) {
			sc.pruned++
			continue
		}
		st.remCap = r.Capacity
		st.remCnt = st.live
		st.heapPos = int32(len(h))
		h = append(h, fastEntry{share: st.remCap / float64(st.remCnt), id: r.id, res: r})
	}
	h.init()
	pend := sc.pend[:0]
	for unassigned > 0 && len(h) > 0 {
		e := h.pop()
		share := e.share
		if min := e.res.Capacity * 1e-12; share < min {
			share = min
		}
		for _, f := range e.res.st.flows {
			if f.rate >= 0 {
				continue
			}
			f.rate = share
			unassigned--
			for _, r := range f.resources {
				ost := &r.st
				if ost.heapPos < 0 {
					continue // pruned or already out of the heap: never read again
				}
				ost.remCap -= share
				if ost.remCap < 0 {
					ost.remCap = 0
				}
				ost.remCnt--
				if !ost.pend {
					ost.pend = true
					pend = append(pend, ost)
				}
			}
		}
		for _, ost := range pend {
			ost.pend = false
			if ost.remCnt > 0 {
				h.update(int(ost.heapPos), ost.remCap/float64(ost.remCnt))
			} else {
				h.remove(int(ost.heapPos)) // drained: every crossing is frozen
			}
		}
		pend = pend[:0]
	}
	sc.heap, sc.pend = h[:0], pend
}

// verifyIncremental is the differential mode: after an incremental batch
// it checks the state the solver keeps across solves (verifyCaches), then
// re-solves the entire active set with the global reference solver (into
// flow.refRate) and asserts every rate is bitwise-identical to the
// incremental result. A mismatch is a bug in the partition or cache
// maintenance; it panics with the diverging flow or resource.
func (fs *flowSet) verifyIncremental() {
	fs.verifyCaches()
	if len(fs.active) == 0 {
		fs.stats.DiffChecks++
		return
	}
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

// verifyCaches asserts that what the solver caches across solves equals
// a fresh derivation. For every live resource whose state is of the
// current capacity generation, Capacity must not have moved since (the
// mutate-then-recompute contract of Resource.Capacity); every current
// flow's path facts must equal a fresh walk of its path; every live
// resource's crossing list must be exactly the active flows crossing it,
// in seq order; and every current live count and bound must equal a
// fresh recompute.
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
		for _, r := range c.resources {
			st := &r.st
			want, ok := crossings[r]
			delete(crossings, r) // a second listing of r then fails below
			if r.comp != c || !ok || !slices.Equal(st.flows, want) {
				panic(fmt.Sprintf("sim: resource %q: crossing list of %d flows (owned by its component: %v) != the %d active crossings",
					r.Name, len(st.flows), r.comp == c, len(want)))
			}
			if st.stale || st.capGen != gen {
				continue
			}
			if n, b := crossingBound(r); n != st.live || b != st.bound {
				panic(fmt.Sprintf("sim: resource %q: cached live count %d and bound %v != recomputed %d and %v",
					r.Name, st.live, st.bound, n, b))
			}
		}
	}
	for r := range crossings {
		panic(fmt.Sprintf("sim: resource %q is crossed by an active flow but owned by no component", r.Name))
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
