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
//     keep their flow lists and nflows: rate caches and tracer samples do
//     not change. In fabric-coupled components (one wide fabric, DRAM
//     ports, memory sockets) most resources are of this kind.
//   - A bottleneck's freezes collect the heap members they touch and
//     re-key each once afterwards, not once per crossing. The remCap
//     subtractions still run per crossing in the same order, so the keys
//     after the loop are the ones per-crossing re-keying would leave.
//   - The heap is 4-ary. Because (share, resource id) is a strict total
//     order, the heap pops the same minimum whatever its shape, so neither
//     the deferred re-keys nor the arity change the pop sequence.

package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// AllocStats are cumulative allocator counters, exposed for benchmarks,
// tracing, and tests.
type AllocStats struct {
	// Recomputes counts dirty-batch solves (deferred same-instant batches
	// plus explicit RecomputeFlows/RecomputeResources calls that had work).
	Recomputes int64 `json:"recompute_batches"`
	// ComponentsSolved counts individual component water-filling solves.
	ComponentsSolved int64 `json:"components_solved"`
	// FlowsSolved totals the flows visited across all component solves —
	// the incremental analogue of the old recompute-work counter.
	FlowsSolved int64 `json:"flows_solved"`
	// Merges counts component unions caused by a new flow bridging them.
	Merges int64 `json:"merges"`
	// Splits counts lazy partition rebuilds that produced >1 component.
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

// ActiveComponents returns the number of live connected components in the
// flow partition.
func (e *Engine) ActiveComponents() int { return len(e.flows.comps) }

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

// resState is the per-resource working state of one allocation round. The
// structs are reused across rounds (gen-stamped) to keep the allocator
// allocation-free in steady state. The fast path reaches them through
// Resource.state; the reference path keeps its own map so the two
// implementations stay independent.
type resState struct {
	remCap float64
	remCnt int
	ver    int
	flows  []*flow
	gen    int64
	// Lazy-rebuild (split) scratch: the component-local flow index that
	// first touched this resource, stamped per split attempt.
	splitGen int64
	splitIdx int32
	// heapPos is the resource's slot in the fast path's indexed share
	// heap, or -1 when not enqueued.
	heapPos int32
	// pend marks a heap member already queued for re-keying after the
	// current bottleneck's freezes (fast path).
	pend bool
	// bound is Σ bound(f,r) over the resource's crossings: a cap on the
	// rate its flows can ever be allocated (fast path, see allocateFast).
	bound float64
}

// allocateRef is the reference max-min fair (water-filling) solver — the
// historical global implementation, kept verbatim (map-keyed resource
// states, container/heap) as the independent oracle of the differential
// check. Flows must be in ascending flow.seq order. Bottleneck selection
// uses a lazy min-heap of fair shares, so a solve costs O(E log R) in the
// total flow-resource degree E of the set. Flows crossing a zero-capacity
// resource are held at rate 0 and excluded from the water-fill. Rates
// land in flow.refRate; no engine state is disturbed.
func (fs *flowSet) allocateRef(flows []*flow) {
	if fs.scratch == nil {
		fs.scratch = make(map[*Resource]*resState, 64)
	}
	fs.solveGen++
	gen := fs.solveGen
	states := fs.scratch
	touched := fs.touched[:0]
	ensure := func(r *Resource) *resState {
		st := states[r]
		if st == nil {
			st = &resState{}
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
	fs.touched = touched
	h := fs.heapBuf[:0]
	for _, r := range touched {
		st := states[r]
		if st.remCnt > 0 {
			h = append(h, shareEntry{share: st.remCap / float64(st.remCnt), res: r, ver: 0})
		}
	}
	heap.Init(&h)
	defer func() { fs.heapBuf = h[:0] }()
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

// cacheRates stores the post-solve allocated rate of every touched
// resource on the resource itself (the cache Utilization reads). A flow
// whose path crosses the same resource several times appears consecutively
// in the state's flow list and is counted once. With a tracer attached,
// the same values are reported as ResourceSamples, so Utilization and the
// recorded timeline always agree.
func (fs *flowSet) cacheRates(touched []*Resource) {
	e := fs.e
	for _, r := range touched {
		used := 0.0
		var prev *flow
		for _, f := range r.state.flows {
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
// pointer, and the state pointer lets moves maintain heapPos directly.
type fastEntry struct {
	share float64
	id    int64
	res   *Resource
	st    *resState
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
		h[i].st.heapPos = int32(i)
		i = p
	}
	h[i] = x
	x.st.heapPos = int32(i)
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
		h[i].st.heapPos = int32(i)
		i = m
	}
	h[i] = x
	x.st.heapPos = int32(i)
}

func (h *fastHeap) pop() fastEntry {
	hh := *h
	top := hh[0]
	top.st.heapPos = -1
	n := len(hh) - 1
	*h = hh[:n]
	if n > 0 {
		hh[0] = hh[n]
		hh[:n].down(0)
	}
	return top
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

// solveScratch is allocateFast's reusable state: the touched-set,
// share-heap and re-key buffers plus the parked-flow count the caller
// folds into the stats.
type solveScratch struct {
	touched []*Resource
	heap    fastHeap
	pend    []*resState
	parked  int64
	// pruned counts resources kept out of the share heap as non-binding,
	// cumulatively. It is a host-side diagnostic for tests, not a
	// simulation result, so it is not part of AllocStats.
	pruned int64
}

// allocateFast is the allocator's solver: identical arithmetic and
// bottleneck ordering to allocateRef, but the per-resource solve state is
// reached through Resource.state instead of a map, and the share heap is
// monomorphic — together removing hashing and per-push boxing from the
// hot loop. The differential mode cross-checks its output against
// allocateRef bitwise. It also skips the work that cannot change a rate:
// non-binding resources stay out of the heap, and each bottleneck re-keys
// the heap members it touched once (see the file comment for why both
// are exact).
//
// All mutable state is in the scratch, in the gen-stamped resStates of
// the flows' resources, or in the flows themselves; gen must be unique per
// solve. Parked-flow visits are counted in sc.parked for the caller to
// fold into the stats.
func (sc *solveScratch) allocateFast(flows []*flow, gen int64) []*Resource {
	touched := sc.touched[:0]
	ensure := func(r *Resource) *resState {
		st := r.state
		if st == nil {
			st = &resState{}
			r.state = st
		}
		if st.gen != gen {
			st.gen = gen
			st.remCap = r.Capacity
			st.remCnt = 0
			st.bound = 0
			st.heapPos = -1
			st.flows = st.flows[:0]
			touched = append(touched, r)
		}
		return st
	}
	unassigned := 0
	for _, f := range flows {
		// One pass over the path: the parked check plus the two smallest
		// capacities (with multiplicity) and the largest, for the bounds.
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
		if parked {
			f.rate = 0
			f.parked = true
			sc.parked++
			for _, r := range f.resources {
				ensure(r)
			}
			continue
		}
		f.parked = false
		f.rate = -1 // unassigned
		unassigned++
		floor := maxCap * 1e-12
		for _, r := range f.resources {
			st := ensure(r)
			st.remCnt++
			st.flows = append(st.flows, f)
			b := min1
			if r.Capacity == min1 {
				b = min2 // this crossing is (one of) the path's smallest
			}
			st.bound += max(b, floor)
		}
	}
	sc.touched = touched
	h := sc.heap[:0]
	for _, r := range touched {
		st := r.state
		r.nflows = st.remCnt
		if st.remCnt == 0 {
			continue
		}
		if r.Capacity > st.bound*(1+1e-9) {
			sc.pruned++
			continue
		}
		st.heapPos = int32(len(h))
		h = append(h, fastEntry{share: st.remCap / float64(st.remCnt), id: r.id, res: r, st: st})
	}
	h.init()
	pend := sc.pend[:0]
	for unassigned > 0 && len(h) > 0 {
		e := h.pop()
		st := e.st
		if st.remCnt == 0 {
			continue // drained by an earlier bottleneck's freezes
		}
		share := e.share
		if min := e.res.Capacity * 1e-12; share < min {
			share = min
		}
		for _, f := range st.flows {
			if f.rate >= 0 {
				continue
			}
			f.rate = share
			unassigned--
			for _, r := range f.resources {
				ost := r.state
				if ost.heapPos < 0 {
					continue // pruned or already popped: never read again
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
			}
		}
		pend = pend[:0]
	}
	sc.heap, sc.pend = h[:0], pend
	return touched
}

// verifyIncremental is the differential mode: after an incremental batch
// it re-solves the entire active set with the global reference solver
// (into flow.refRate) and asserts every rate is bitwise-identical to the
// incremental result. A mismatch is a bug in the partition maintenance;
// it panics with the diverging flow.
func (fs *flowSet) verifyIncremental() {
	if len(fs.active) == 0 {
		fs.stats.DiffChecks++
		return
	}
	fs.allocateRef(fs.active)
	for _, f := range fs.active {
		if f.refRate != f.rate {
			names := make([]string, 0, len(f.resources))
			for _, r := range f.resources {
				names = append(names, r.Name)
			}
			panic(fmt.Sprintf(
				"sim: differential allocator check failed at t=%v: flow seq=%d remaining=%g path=%v: incremental rate %v != global reference %v",
				float64(fs.e.now), f.seq, f.remaining, names, f.rate, f.refRate))
		}
	}
	fs.stats.DiffChecks++
}
