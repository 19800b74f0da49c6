// Worker-pool fan-out for the sharded simulation core.
//
// Connected components are resource-disjoint by construction, so solving
// two dirty components concurrently touches disjoint flows, resources, and
// resource solve states. Everything that is shared — tracer emission,
// allocator counters, the live-component list, generation counters — is
// either pre-assigned before the fan-out (per-task solve generations) or
// buffered per task and merged on the dispatcher goroutine in task order
// after the barrier. Task-to-worker assignment is nondeterministic (atomic
// work stealing), but no observable state depends on it, so simulations
// are byte-identical at any worker count and GOMAXPROCS.
//
// The pool is spawn-per-batch: goroutine start-up (~µs) is far below the
// cost of a batch large enough to clear parallelMinFlows, and an idle
// engine keeps no background goroutines alive.

package sim

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

func numCPU() int { return runtime.NumCPU() }

// parallelMinFlows gates every parallel path: batches (or active sets)
// below this size are cheaper to process serially than to fan out, and
// staying serial for small simulations keeps unit-test timings exact.
const parallelMinFlows = 2048

// ParallelStats counts worker-pool activity. Unlike AllocStats these are
// host-execution counters, not simulation results: they vary with the
// worker count (a workers=1 run reports zeros), so they are kept out of
// AllocStats and of any output that must be byte-identical across worker
// counts.
type ParallelStats struct {
	// Batches counts dirty batches whose component solves ran on the
	// worker pool.
	Batches int64 `json:"parallel_batches"`
	// Components totals the component tasks executed inside those batches.
	Components int64 `json:"parallel_components"`
	// MaxWorkers is the largest fan-out width any batch used.
	MaxWorkers int `json:"max_workers"`
}

// ParallelStats returns a snapshot of the worker-pool counters.
func (e *Engine) ParallelStats() ParallelStats { return e.flows.pstats }

// parallelDo runs items tasks on up to workers goroutines; the caller's
// goroutine participates as worker 0 and the call returns only when every
// task has finished (a barrier). Tasks are claimed through an atomic
// cursor, so which worker runs which task is nondeterministic — fn must
// keep its side effects private to the task (or to the worker's scratch)
// and let the caller merge them in task order afterwards.
func parallelDo(workers, items int, fn func(worker, item int)) {
	if workers > items {
		workers = items
	}
	if workers <= 1 {
		for i := 0; i < items; i++ {
			fn(0, i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= items {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	for {
		i := int(cursor.Add(1) - 1)
		if i >= items {
			break
		}
		fn(0, i)
	}
	wg.Wait()
}

// solveScratch is one worker's private allocator state: the touched-set,
// share-heap and re-key buffers of allocateFast plus the parked-flow count
// the caller folds into the stats. The serial path uses slot 0.
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

// resSample is one buffered tracer sample (ResourceSample arguments).
type resSample struct {
	r    *Resource
	rate float64
}

// taskBuf collects one component task's shared side effects for the
// in-order apply phase: tracer samples in emission order and the
// allocator-counter deltas.
type taskBuf struct {
	samples          []resSample
	componentsSolved int64
	flowsSolved      int64
	parked           int64
}

func (tb *taskBuf) reset() {
	tb.samples = tb.samples[:0]
	tb.componentsSolved = 0
	tb.flowsSolved = 0
	tb.parked = 0
}

// serialScratch returns the dispatcher goroutine's solver scratch.
func (fs *flowSet) serialScratch() *solveScratch {
	if len(fs.workerScratch) == 0 {
		fs.workerScratch = make([]solveScratch, 1)
	}
	return &fs.workerScratch[0]
}

// batchFlows is the fan-out gate's work estimate: total flows to solve.
func batchFlows(solve []*component) int {
	n := 0
	for _, c := range solve {
		n += len(c.flows)
	}
	return n
}

// solveBatch water-fills every component in solve, closing out split
// residues (resources no part re-claimed) after the owning split's last
// part, in the exact order the serial path would. Large multi-component
// batches fan out across the worker pool; each task's shared side effects
// are buffered (taskBuf) and applied in task order after the barrier, so
// the result — rates, stats, tracer stream — is byte-identical to the
// serial path.
func (fs *flowSet) solveBatch(solve []*component, residues []splitResidue) {
	n := len(solve)
	w := fs.e.workers
	if w > n {
		w = n
	}
	nflows := batchFlows(solve)
	if w <= 1 || nflows < parallelMinFlows {
		ri := 0
		for i, c := range solve {
			fs.solveComponent(c)
			for ri < len(residues) && residues[ri].afterTask == i {
				fs.closeResidue(residues[ri].res)
				ri++
			}
		}
		return
	}

	fs.pstats.Batches++
	if w > fs.pstats.MaxWorkers {
		fs.pstats.MaxWorkers = w
	}
	if len(fs.workerScratch) < w {
		old := fs.workerScratch
		fs.workerScratch = make([]solveScratch, w)
		copy(fs.workerScratch, old)
	}
	if len(fs.taskBufs) < n {
		old := fs.taskBufs
		fs.taskBufs = make([]taskBuf, n)
		copy(fs.taskBufs, old)
	}
	for len(fs.workerTasks) < w {
		fs.workerSeries = append(fs.workerSeries, "solver.w"+strconv.Itoa(len(fs.workerTasks))+".tasks")
		fs.workerTasks = append(fs.workerTasks, 0)
	}
	workerTasks := fs.workerTasks[:w]
	// Pre-assign one solve generation per task so resState stamps do not
	// depend on scheduling order.
	base := fs.solveGen
	fs.solveGen += int64(n)
	parallelDo(w, n, func(worker, i int) {
		workerTasks[worker]++ // slot is private to one goroutine per batch
		fs.solveTask(solve[i], &fs.workerScratch[worker], &fs.taskBufs[i], base+int64(i)+1)
	})

	// Apply phase (dispatcher goroutine, task order): merge counters, emit
	// buffered tracer samples, close residues, prune dead components.
	anyDead := false
	ri := 0
	for i, c := range solve {
		tb := &fs.taskBufs[i]
		fs.pstats.Components++
		fs.stats.ComponentsSolved += tb.componentsSolved
		fs.stats.FlowsSolved += tb.flowsSolved
		fs.stats.ParkedFlows += tb.parked
		if c.dead {
			anyDead = true
		}
		if fs.e.tracer != nil {
			for _, s := range tb.samples {
				fs.e.tracer.ResourceSample(fs.e.now, s.r, s.rate)
			}
		}
		tb.reset()
		for ri < len(residues) && residues[ri].afterTask == i {
			fs.closeResidue(residues[ri].res)
			ri++
		}
	}
	if anyDead {
		fs.removeDead()
	}
	if tr := fs.e.tracer; tr != nil {
		tr.Counter(fs.e.now, "solver.batch.workers", int64(w))
		tr.Counter(fs.e.now, "solver.batch.components", int64(n))
		tr.Counter(fs.e.now, "solver.batch.flows", int64(nflows))
		for i, k := range workerTasks {
			tr.Counter(fs.e.now, fs.workerSeries[i], k)
		}
	}
}

// closeResidue closes the resources of a split-away component that no
// surviving part re-claimed: they belonged only to finished flows.
func (fs *flowSet) closeResidue(res []*Resource) {
	for _, r := range res {
		if r.comp == nil {
			fs.closeResource(r)
		}
	}
}

// solveTask is the worker-side body of one component solve: the same
// steps as solveComponent, but all shared side effects go to the task
// buffer and dead components are pruned later by the apply phase. It only
// touches the component's own flows and resources (plus the worker's
// scratch), so concurrent tasks never race.
func (fs *flowSet) solveTask(c *component, sc *solveScratch, tb *taskBuf, gen int64) {
	trace := fs.e.tracer != nil
	if len(c.flows) == 0 {
		for _, r := range c.resources {
			if r.comp == c {
				r.comp = nil
				r.nflows = 0
				r.alloc = 0
				if trace {
					tb.samples = append(tb.samples, resSample{r, 0})
				}
			}
		}
		c.resources = c.resources[:0]
		c.dead = true
		return
	}
	tb.componentsSolved = 1
	tb.flowsSolved = int64(len(c.flows))
	touched := sc.allocateFast(c.flows, gen)
	tb.parked = sc.parked
	sc.parked = 0
	for _, r := range touched {
		r.comp = c
	}
	for _, r := range c.resources {
		if r.comp == c {
			if st := r.state; st == nil || st.gen != gen {
				r.comp = nil
				r.nflows = 0
				r.alloc = 0
				if trace {
					tb.samples = append(tb.samples, resSample{r, 0})
				}
			}
		}
	}
	c.resources = append(c.resources[:0], touched...)
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
		if trace {
			tb.samples = append(tb.samples, resSample{r, used})
		}
	}
}

// advanceParallel chunks the active-flow drain across the worker pool.
// Each flow's update reads and writes only that flow, and the arithmetic
// per flow is unchanged, so the result is independent of the chunking.
func (fs *flowSet) advanceParallel(dt float64, workers int) {
	active := fs.active
	chunk := (len(active) + workers - 1) / workers
	if chunk < 256 {
		chunk = 256
	}
	tasks := (len(active) + chunk - 1) / chunk
	parallelDo(workers, tasks, func(_, ti int) {
		lo := ti * chunk
		hi := lo + chunk
		if hi > len(active) {
			hi = len(active)
		}
		for _, f := range active[lo:hi] {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	})
}

// mergeNextCompletions runs the per-component completion-queue scans on
// the worker pool and merges their heads serially. Each scan only reads
// its component's flows; the merged min over the per-component minima is
// bitwise-equal to a global scan regardless of grouping.
func (fs *flowSet) mergeNextCompletions(workers int) Time {
	comps := fs.comps
	n := len(comps)
	if cap(fs.nextBuf) < n {
		fs.nextBuf = make([]Time, n)
	}
	buf := fs.nextBuf[:n]
	parallelDo(workers, n, func(_, i int) {
		buf[i] = fs.compNextCompletion(comps[i])
	})
	best := Infinity
	for _, t := range buf {
		if t < best {
			best = t
		}
	}
	return best
}
