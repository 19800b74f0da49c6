// Package sim implements a deterministic discrete-event simulation engine
// with a virtual clock, cooperative processes, and fluid-flow bandwidth
// resources using max-min fair sharing.
//
// The engine executes at most one process at a time: a dispatcher pops the
// earliest event from the event heap, advances the virtual clock, and resumes
// the process (or runs the callback) attached to the event. A resumed process
// runs until it blocks again in an engine-aware operation (Sleep, Transfer,
// Mailbox.Recv, WaitGroup.Wait, ...). Because processes never run
// concurrently and ties are broken by event sequence number, simulations are
// fully deterministic.
//
// Each process is an iter.Pull coroutine run from Run's goroutine, so a
// panic in a process comes out of Run. proc.go, the one file that needs
// go1.23, says so in a build constraint while go.mod stays at 1.22.
//
// The flow allocator runs on the same goroutine: between events it
// re-solves the dirty connected components one after another, advances the
// active flows and schedules the next completion, so no engine state is
// ever touched by two goroutines.
//
// Processes must not block on ordinary Go primitives; all waiting must go
// through the engine so that virtual time can advance.
package sim

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// Infinity is a time later than any event the engine will ever schedule.
const Infinity Time = Time(math.MaxFloat64)

// completionQuantum is the virtual-time window within which flow
// completions are batched (see scheduleCompletion). 20 µs is far below
// every modelled latency, so measurements are unaffected, while
// synchronized fan-outs (thousands of ranks finishing near-together)
// collapse into a handful of allocation rounds.
const completionQuantum = 2e-5

// Event kinds. The engine's own recurring events (process resumes, flow
// completion, deferred batch solves, fan-out completions) are typed values
// instead of closures, so pushing them allocates nothing; evFn carries an
// arbitrary user callback.
const (
	evFn uint8 = iota
	evResume
	evComplete
	evBatch
	evFanDone
)

type event struct {
	t    Time
	seq  int64
	kind uint8
	proc *Proc  // evResume: the parked process to continue; evFanDone: the TransferAll caller
	gen  int64  // evComplete: flow-set generation stamp
	fn   func() // evFn
}

// eventHeap is a value-typed binary min-heap ordered by (t, seq). The
// monomorphic sift operations avoid both the per-event allocation and the
// interface boxing of container/heap; like fastHeap they move a hole and
// write the sifted event once, at its final slot.
type eventHeap []event

func (ev *event) before(o *event) bool {
	if ev.t != o.t {
		return ev.t < o.t
	}
	return ev.seq < o.seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&hh[parent]) {
			break
		}
		hh[i] = hh[parent]
		i = parent
	}
	hh[i] = ev
}

func (h *eventHeap) popMin() event {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	last := hh[n]
	hh[n] = event{} // release fn/proc references
	hh = hh[:n]
	*h = hh
	if n == 0 {
		return top
	}
	i := 0
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && hh[r].before(&hh[m]) {
			m = r
		}
		if !hh[m].before(&last) {
			break
		}
		hh[i] = hh[m]
		i = m
	}
	hh[i] = last
	return top
}

func (h eventHeap) empty() bool { return len(h) == 0 }

// Engine is a discrete-event simulator instance. The zero value is not
// usable; create one with NewEngine. All simulation state lives in the
// engine: two engines, in one process or not, share nothing.
type Engine struct {
	now    Time
	events eventHeap
	seq    int64

	procSeq  int64
	resSeq   int64 // resource ids, in creation order
	parked   int   // procs alive but waiting for a resume
	flows    flowSet
	tracer   Tracer
	finished bool
}

// Tracer receives the engine's instrumentation stream: fluid-flow
// start/finish, per-resource rate-change samples (the utilization
// timeline) and named counter series. The interface is defined here so
// the engine stays free of higher-level dependencies; the canonical
// implementation is internal/trace.Recorder. All callbacks run in
// dispatcher or process context (serialized) at the current virtual time.
type Tracer interface {
	// FlowBegin reports a fluid transfer entering the active set. Its id
	// is the flow's engine sequence number, 1 for the engine's first flow.
	FlowBegin(t Time, id int64, size float64, resources []*Resource)
	// FlowEnd reports the transfer draining its last byte.
	FlowEnd(t Time, id int64)
	// ResourceSample reports the allocated rate (bytes/s) across a
	// resource after a rate recomputation; a resource whose last flow
	// retired is reported once with rate 0.
	ResourceSample(t Time, r *Resource, rate float64)
	// Counter reports the value of a named series at t: after every
	// dirty-batch solve the live component count (alloc.components) and
	// cumulative flows solved (alloc.flows_solved).
	Counter(t Time, name string, v int64)
}

// NewEngine returns an empty simulation at virtual time zero. The
// allocator re-solves only the dirty connected components of the active
// flow set; UNIVISTOR_SIM_DIFFCHECK enables the differential self-check
// against the global reference solver (see SetDifferentialCheck).
func NewEngine() *Engine {
	e := &Engine{}
	e.flows.e = e
	e.flows.capGen = 1
	if os.Getenv("UNIVISTOR_SIM_DIFFCHECK") != "" {
		e.flows.diffCheck = true
	}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetWorkers does nothing. The allocator once had a solver worker pool;
// the host benchmark under benchmark/ still calls this and ParallelStats,
// and ROADMAP lists dropping those calls and then these shims.
func (e *Engine) SetWorkers(int) {}

// ParallelStats is the remnant of the removed solver worker pool's counters.
type ParallelStats struct{ Batches int64 }

// ParallelStats returns the zero value: no batch runs on a worker pool.
func (e *Engine) ParallelStats() ParallelStats { return ParallelStats{} }

// SetTracer attaches the instrumentation sink. Passing nil disables
// tracing; a disabled engine pays one nil check per potential event.
func (e *Engine) SetTracer(tr Tracer) { e.tracer = tr }

// At schedules fn to run at absolute virtual time t (clamped to now).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events.push(event{t: t, seq: e.seq, kind: evFn, fn: fn})
}

// at schedules a typed, allocation-free internal event.
func (e *Engine) at(t Time, ev event) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev.t = t
	ev.seq = e.seq
	e.events.push(ev)
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now+Time(d), fn) }

// step pops the earliest event, advances the clock and the active flows
// to its time, and executes it in dispatcher context.
func (e *Engine) step() {
	ev := e.events.popMin()
	if ev.t > e.now {
		e.flows.advance(ev.t)
		e.now = ev.t
	}
	switch ev.kind {
	case evFn:
		ev.fn()
	case evResume:
		ev.proc.step()
	case evComplete:
		e.flows.completeAll(ev.gen)
	case evBatch:
		if e.flows.dirty {
			e.flows.runPending()
		}
	case evFanDone:
		// One piece of a TransferAll fan-out drained; the last piece
		// wakes the issuing process, which stays parked until then.
		p := ev.proc
		p.fanout--
		if p.fanout == 0 {
			p.Resume()
		}
	}
}

// Run executes the simulation until no events remain. It returns the final
// virtual time. If processes remain parked when the event queue drains, they
// are deadlocked; Run returns and Deadlocked reports how many.
func (e *Engine) Run() Time {
	for !e.events.empty() {
		e.step()
	}
	e.finished = true
	return e.now
}

// Deadlocked returns the number of processes still parked after Run drained
// the event queue. A non-zero value indicates processes waiting on
// communication that can never arrive.
func (e *Engine) Deadlocked() int {
	if !e.finished {
		return 0
	}
	return e.parked
}

// ---------------------------------------------------------------------------
// Fluid-flow bandwidth resources with max-min fair sharing.

// Resource is a capacity-constrained bandwidth resource (a device port, a
// network link, a storage target). Concurrent flows crossing a resource share
// its capacity max-min fairly.
type Resource struct {
	Name string
	// Capacity is in bytes per second. The solver caches facts derived
	// from it, so a change while flows cross the resource takes effect
	// only through RecomputeResources naming it, which must follow the
	// mutation before the engine runs on; the differential check panics,
	// naming the resource, when the call is missing.
	Capacity float64

	id int64 // creation order within the engine; deterministic tie-breaking
	// comp is the connected component currently owning this resource, nil
	// while no active flow crosses it (maintained by flowSet).
	comp *component
	// st is the solver's state for this resource: its crossing list and
	// the facts derived from it persist across solves (see allocateFast).
	st resState
}

// NewResource returns a resource of the engine with the given capacity in
// bytes/second. Its id is the engine's next resource number, from 1.
func (e *Engine) NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity must be positive, got %v", name, capacity))
	}
	e.resSeq++
	return &Resource{Name: name, Capacity: capacity, id: e.resSeq}
}

type flow struct {
	resources []*Resource
	// mask has bit i set exactly when resources[i], for i < maskBits, is
	// in its component's water-fill (resState.ordered); see allocateFast.
	// It sits beside resources and rate, in the cache line a freeze reads.
	mask      uint64
	remaining float64
	rate      float64
	p         *Proc // Transfer: the parked caller to wake on completion
	fan       *Proc // TransferAll piece: decrement the caller's fanout on completion

	seq     int64      // insertion order and trace id; fixes allocation iteration order
	comp    *component // owning component; nil once the flow finishes
	refRate float64    // differential-mode shadow rate (reference solver)

	// Path facts (see pathFacts), valid while factsGen is the flow set's
	// capacity generation. parked marks a flow crossing a zero-capacity
	// (degraded-to-outage) resource: its rate is held at 0 and it is
	// excluded from allocation until a recompute sees the capacity
	// restored. min1 and min2 are the path's two smallest capacities (with
	// multiplicity) and floor is 1e-12 × its largest, for the bounds.
	parked     bool
	min1, min2 float64
	floor      float64
	factsGen   int64
}

type flowSet struct {
	e      *Engine
	active []*flow // ascending flow.seq
	last   Time
	// dirty marks that the component dirty-list is non-empty and a single
	// deferred batch solve is scheduled for the current instant —
	// coalescing the allocation work when thousands of flows start or
	// finish together.
	dirty bool

	diffCheck bool
	stats     AllocStats

	gen     int64 // invalidates stale flow-completion events
	flowSeq int64 // flow insertion order: the last flow.seq
	compSeq int64 // component ids, for deterministic merge tie-breaks
	// capGen is the capacity generation: a non-empty RecomputeResources
	// bumps it, which marks every cached path fact and resource bound
	// stale. It starts at 1, so a zero stamp is never current.
	capGen int64

	comps       []*component // live components, creation order
	dirtyComps  []*component
	compScratch []*component // add() dedup scratch
	// Retired components wait on the graveyard until the batch's dirty
	// queue is cleared, then return to compPool for reuse; mergeBuf is
	// the spare array the next merge writes its flow list into.
	graveyard []*component
	compPool  []*component
	mergeBuf  []*flow

	// Free list for the hot-path struct; a flow returns to the pool the
	// instant it finishes.
	flowPool []*flow
	finBuf   []*flow     // completeAll scratch
	resBuf   []*Resource // completeAll and allocateFast scratch

	solve solveScratch // allocateFast's buffers and counters
	ref   refSolver    // the differential check's reference solver
}

// newFlow takes a flow from the pool (or allocates the pool's first use).
func (fs *flowSet) newFlow() *flow {
	if n := len(fs.flowPool); n > 0 {
		f := fs.flowPool[n-1]
		fs.flowPool = fs.flowPool[:n-1]
		return f
	}
	return &flow{}
}

// freeFlow resets and recycles a finished flow. Callers must have dropped
// every reference first (the flow is spliced out of active and component
// lists before completion side effects run). The flow keeps its path
// array, cleared, for the next transfer to copy its path into.
func (fs *flowSet) freeFlow(f *flow) {
	clear(f.resources)
	*f = flow{resources: f.resources[:0]}
	fs.flowPool = append(fs.flowPool, f)
}

// start begins a transfer of size bytes across path: it takes a pooled
// flow, copies the path into it, adds it to the active set and reports it
// to the tracer. The caller sets the flow's completion hook.
func (fs *flowSet) start(size float64, path []*Resource) *flow {
	e := fs.e
	f := fs.newFlow()
	f.resources = append(f.resources, path...)
	f.remaining = size
	fs.add(f)
	if e.tracer != nil {
		e.tracer.FlowBegin(e.now, f.seq, size, f.resources)
	}
	return f
}

// advance progresses all active flows to time t at their current rates.
// Engine.step is its one caller, right before it moves the clock to t, so
// fs.last equals the engine's clock everywhere else (verifyIncremental
// asserts it) and the flows are always advanced to the current instant.
func (fs *flowSet) advance(t Time) {
	if dt := float64(t - fs.last); dt > 0 {
		for _, f := range fs.active {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	fs.last = t
}

// Transfer moves size bytes across the given resources, blocking the process
// for the simulated duration. The flow's instantaneous rate is the max-min
// fair share of the most contended resource on its path. A zero or negative
// size completes immediately. The path is copied, as for Flow.Path.
func (p *Proc) Transfer(size float64, resources ...*Resource) {
	if size <= 0 || len(resources) == 0 {
		return
	}
	p.e.flows.start(size, resources).p = p
	p.Park()
}

// Flow describes one piece of a parallel transfer for TransferAll.
type Flow struct {
	Size float64
	// Path is the resources the piece crosses. The engine copies it into
	// the flow it starts, which owns that copy until it finishes, so the
	// slice is free for reuse, by this process or any other, once
	// TransferAll has started the flows and parked.
	Path []*Resource
}

// TransferAll starts every flow concurrently and blocks the process until
// all complete — the model of one I/O call fanned out across several
// storage targets. Pieces of zero size or with an empty path are skipped.
// The process, parked until its last piece drains, holds the count of
// pieces in flight.
func (p *Proc) TransferAll(flows []Flow) {
	fs := &p.e.flows
	for _, piece := range flows {
		if piece.Size > 0 && len(piece.Path) > 0 {
			fs.start(piece.Size, piece.Path).fan = p
			p.fanout++
		}
	}
	if p.fanout > 0 {
		p.Park()
	}
}

// RecomputeResources re-runs the max-min allocation after the capacities
// of rs changed: only the components whose flows cross one of rs are
// re-solved — rates elsewhere are provably unchanged under max-min
// fairness. Resources not crossed by any active flow are skipped. Callers
// that mutate Resource.Capacity while flows cross the resource must call
// this for the change to take effect. Any recompute already queued for
// this instant is folded into the batch, so a call with no resources
// solves just that pending batch.
func (e *Engine) RecomputeResources(rs ...*Resource) {
	fs := &e.flows
	if len(rs) > 0 {
		fs.capGen++
	}
	for _, r := range rs {
		if c := r.comp; c != nil {
			fs.queueDirty(c)
		}
	}
	fs.runPending()
}

// runPending solves every queued dirty component synchronously
// (superseding the deferred same-instant batch event), and reschedules the
// global completion event.
func (fs *flowSet) runPending() {
	fs.dirty = false
	fs.processDirty()
	fs.scheduleCompletion()
}

// CheckFlowConservation verifies that the current rate assignment respects
// every resource's capacity: the sum of allocated rates across a resource
// (counted once per path crossing, matching what the allocator charges)
// must not exceed Capacity·(1+eps). A pending same-instant recompute is
// applied first so the check never sees a half-updated active set. It
// returns one human-readable line per violated resource, in deterministic
// (resource-creation) order — the flow-conservation invariant of the chaos
// harness.
func (e *Engine) CheckFlowConservation(eps float64) []string {
	if e.flows.dirty {
		e.flows.runPending()
	}
	used := map[*Resource]float64{}
	var order []*Resource
	for _, f := range e.flows.active {
		if f.rate <= 0 {
			continue
		}
		for _, r := range f.resources {
			if _, seen := used[r]; !seen {
				order = append(order, r)
			}
			used[r] += f.rate
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].id < order[j].id })
	var out []string
	for _, r := range order {
		if used[r] > r.Capacity*(1+eps) {
			out = append(out, fmt.Sprintf(
				"sim: resource %q over-allocated: %.6g B/s across %.6g B/s capacity",
				r.Name, used[r], r.Capacity))
		}
	}
	return out
}
