// Package trace is the structured event-tracing and telemetry subsystem:
// typed spans and instant events keyed by virtual sim.Time, per-process
// append-only buffers, fluid-flow async events, and per-resource rate
// samples (utilization timelines). Recordings export to Chrome
// trace-event JSON (loadable in Perfetto, see export.go) and to a compact
// summary with per-category duration percentiles and per-resource busy
// fractions (see summary.go).
//
// The recorder is designed so that *disabled tracing costs one nil check*:
// every method on a nil *Recorder returns immediately without touching its
// arguments, so instrumentation sites pass a possibly-nil recorder and
// never branch themselves. The simulation engine serializes all process
// execution (handoffs synchronize through channels), so event appends need
// no locks; buffers are plain slices grown in the emitting track.
package trace

import (
	"univistor/internal/sim"
)

// Category classifies events for filtering and summarization. The
// well-known categories below cover the UniviStor stack; storage layers
// use "tier:<name>" (see TierCategory).
type Category string

// The stack's event categories.
const (
	// CatMPI: collectives, sends, and blocking receives.
	CatMPI Category = "mpi"
	// CatMeta: metadata record and open/close server operations.
	CatMeta Category = "meta"
	// CatMetaPlane: replicated metadata-plane operations (sharded commit,
	// failover, recovery).
	CatMetaPlane Category = "metaplane"
	// CatWrite: client write path.
	CatWrite Category = "write"
	// CatRead: client read path.
	CatRead Category = "read"
	// CatFlush: server-side asynchronous flush.
	CatFlush Category = "flush"
	// CatPromote: proactive-placement promotions.
	CatPromote Category = "promote"
	// CatReplicate: volatile-tier buddy replication.
	CatReplicate Category = "replicate"
	// CatFlow: fluid-flow transfers inside the simulation engine.
	CatFlow Category = "flow"
	// CatCAS: content-addressed store operations (dedup planning, GC flows).
	CatCAS Category = "cas"
	// CatChaos: fault injections and invariant sweeps of the chaos harness.
	CatChaos Category = "chaos"
	// CatGateway: multi-tenant gateway operations (admission, tenant ops).
	CatGateway Category = "gateway"
	// CatSim: engine-level instant events (sim.Tracer.Instant).
	CatSim Category = "sim"
)

// TierCategory returns the category of a storage layer, e.g. "tier:DRAM".
func TierCategory(tierName string) Category { return Category("tier:" + tierName) }

// instantDur marks an event as an instant (no duration).
const instantDur = -2

// openDur marks a span whose End has not run yet.
const openDur = -1

// Event is one recorded span or instant on a track.
type Event struct {
	Name  string
	Cat   Category
	Start sim.Time
	// Dur is the span length in virtual seconds; openDur for a span still
	// open, instantDur for an instant event.
	Dur float64
}

// track is one process's (or synthetic source's) append-only event buffer.
type track struct {
	name   string
	events []Event
}

// flowSpan is one fluid transfer: an async begin/end pair.
type flowSpan struct {
	id    int64
	name  string
	start sim.Time
	end   sim.Time
	open  bool
}

// sample is one point of a resource's allocated-rate timeline.
type sample struct {
	t    sim.Time
	rate float64 // bytes/s allocated across the resource at t
}

// counter is one resource's rate timeline.
type counter struct {
	name     string
	capacity float64
	samples  []sample
}

// allocSample is one point of the allocator-counter timeline: the
// engine's cumulative AllocStats and the live component count after a
// dirty-batch solve.
type allocSample struct {
	t     sim.Time
	stats sim.AllocStats
	live  int
}

// metaSample is one point of the metadata-plane timeline: the cumulative
// per-shard op counts after a charged plane operation.
type metaSample struct {
	t      sim.Time
	shards []int
	ops    []int64
}

// leaseSample is one point of the metadata plane's lease/split timeline:
// cumulative lease grants, follower-served and leader-forwarded reads,
// and migrated split records.
type leaseSample struct {
	t                                         sim.Time
	grants, follower, forwarded, splitRecords int64
}

// casSample is one point of the content-addressed store's timeline: the
// cumulative logical bytes presented to flush versus the physical bytes
// actually moved, plus the dead bytes awaiting GC at that instant.
type casSample struct {
	t        sim.Time
	logical  int64
	physical int64
	dead     int64
}

// parallelSample is one point of the worker-pool timeline: the fan-out
// width and work of one parallel batch. These are host-execution
// telemetry — task placement is work-stealing — so the timeline is not
// deterministic across runs and never feeds byte-compared output.
type parallelSample struct {
	t          sim.Time
	workers    int
	components int
	flows      int
	perWorker  []int64 // tasks each worker slot ran in this batch
}

// Recorder accumulates a simulation's trace. The zero value is not usable;
// create one with New. A nil *Recorder is the disabled recorder: every
// method no-ops after one nil check.
type Recorder struct {
	tracks  []*track
	byProc  map[int64]int32  // sim.Proc ID -> track index
	byName  map[string]int32 // synthetic track name -> track index
	flows   []flowSpan
	flowIdx map[int64]int32 // open flow id -> index into flows

	counters     map[*sim.Resource]*counter
	counterOrder []*sim.Resource // registration order, for deterministic export

	allocSamples []allocSample // allocator-counter timeline (sim.AllocTracer)

	metaSamples []metaSample // metadata-plane per-shard op timeline

	leaseSamples []leaseSample // metadata-plane lease/split timeline

	casSamples []casSample // CAS logical-vs-physical byte timeline

	// Worker-pool telemetry (sim.ParallelTracer): the batch timeline and
	// cumulative tasks per worker slot.
	parallelSamples []parallelSample
	workerTasks     []int64

	maxTime sim.Time // latest event time seen; clamps still-open spans
}

// The recorder implements the engine's extended tracing hooks.
var (
	_ sim.AllocTracer    = (*Recorder)(nil)
	_ sim.ParallelTracer = (*Recorder)(nil)
)

// New returns an empty enabled recorder.
func New() *Recorder {
	return &Recorder{
		byProc:   map[int64]int32{},
		byName:   map[string]int32{},
		flowIdx:  map[int64]int32{},
		counters: map[*sim.Resource]*counter{},
	}
}

// Enabled reports whether events will be recorded. Hot paths may use it to
// skip argument construction entirely.
func (r *Recorder) Enabled() bool { return r != nil }

// note advances the recording's end-of-time watermark.
func (r *Recorder) note(t sim.Time) {
	if t > r.maxTime {
		r.maxTime = t
	}
}

// procTrack returns (creating if needed) the track of a simulated process.
func (r *Recorder) procTrack(p *sim.Proc) int32 {
	if idx, ok := r.byProc[p.ID()]; ok {
		return idx
	}
	idx := int32(len(r.tracks))
	r.tracks = append(r.tracks, &track{name: p.Name()})
	r.byProc[p.ID()] = idx
	return idx
}

// namedTrack returns (creating if needed) a synthetic track, e.g. the
// engine's own diagnostics track.
func (r *Recorder) namedTrack(name string) int32 {
	if idx, ok := r.byName[name]; ok {
		return idx
	}
	idx := int32(len(r.tracks))
	r.tracks = append(r.tracks, &track{name: name})
	r.byName[name] = idx
	return idx
}

// Span is a handle on an open span, returned by Begin. The zero value
// (from a disabled recorder) is inert: End on it is a no-op.
type Span struct {
	r     *Recorder
	track int32
	idx   int32
}

// Begin opens a span on the process's track at the process's current
// virtual time. Close it with Span.End. On a nil recorder it returns the
// inert zero Span without touching p.
func (r *Recorder) Begin(p *sim.Proc, cat Category, name string) Span {
	if r == nil {
		return Span{}
	}
	ti := r.procTrack(p)
	tr := r.tracks[ti]
	now := p.Now()
	r.note(now)
	tr.events = append(tr.events, Event{Name: name, Cat: cat, Start: now, Dur: openDur})
	return Span{r: r, track: ti, idx: int32(len(tr.events) - 1)}
}

// End closes the span at virtual time t. Ending an already-closed span or
// the zero Span is a no-op.
func (s Span) End(t sim.Time) {
	if s.r == nil {
		return
	}
	ev := &s.r.tracks[s.track].events[s.idx]
	if ev.Dur != openDur {
		return
	}
	s.r.note(t)
	ev.Dur = float64(t - ev.Start)
}

// Mark records an instant event on the process's track.
func (r *Recorder) Mark(p *sim.Proc, cat Category, name string) {
	if r == nil {
		return
	}
	ti := r.procTrack(p)
	now := p.Now()
	r.note(now)
	r.tracks[ti].events = append(r.tracks[ti].events,
		Event{Name: name, Cat: cat, Start: now, Dur: instantDur})
}

// ---------------------------------------------------------------------------
// sim.Tracer implementation: the hooks the engine drives directly.

// engineTrack is the synthetic track engine-level instants land on.
const engineTrack = "engine"

// Instant records an engine-level instant event (sim.Tracer hook).
func (r *Recorder) Instant(t sim.Time, cat, name string) {
	if r == nil {
		return
	}
	ti := r.namedTrack(engineTrack)
	r.note(t)
	r.tracks[ti].events = append(r.tracks[ti].events,
		Event{Name: name, Cat: Category(cat), Start: t, Dur: instantDur})
}

// FlowBegin records the start of a fluid transfer (sim.Tracer hook). The
// flow renders as an async span labelled with its path's resource names.
func (r *Recorder) FlowBegin(t sim.Time, id int64, size float64, resources []*sim.Resource) {
	if r == nil {
		return
	}
	r.note(t)
	name := "flow"
	if len(resources) > 0 {
		name = resources[0].Name
		for i := 1; i < len(resources) && i < 3; i++ {
			name += "+" + resources[i].Name
		}
		if len(resources) > 3 {
			name += "+…"
		}
	}
	r.flowIdx[id] = int32(len(r.flows))
	r.flows = append(r.flows, flowSpan{id: id, name: name, start: t, open: true})
}

// FlowEnd records the completion of a fluid transfer (sim.Tracer hook).
func (r *Recorder) FlowEnd(t sim.Time, id int64) {
	if r == nil {
		return
	}
	idx, ok := r.flowIdx[id]
	if !ok {
		return
	}
	delete(r.flowIdx, id)
	r.note(t)
	r.flows[idx].end = t
	r.flows[idx].open = false
}

// ResourceSample records the allocated rate (bytes/s) across a resource at
// time t (sim.Tracer hook, called after every rate recomputation). The
// sample holds until the next one, giving a step-function utilization
// timeline.
func (r *Recorder) ResourceSample(t sim.Time, res *sim.Resource, rate float64) {
	if r == nil {
		return
	}
	c := r.counters[res]
	if c == nil {
		c = &counter{name: res.Name, capacity: res.Capacity}
		r.counters[res] = c
		r.counterOrder = append(r.counterOrder, res)
	}
	r.note(t)
	// Same-instant recomputes supersede each other: keep the last value.
	if n := len(c.samples); n > 0 && c.samples[n-1].t == t {
		c.samples[n-1].rate = rate
		return
	}
	c.samples = append(c.samples, sample{t: t, rate: rate})
}

// AllocSample records the engine's cumulative allocator counters after a
// dirty-batch solve (sim.AllocTracer hook). The timeline exports as a
// counter track (components over time) and digests into the summary's
// allocator block.
func (r *Recorder) AllocSample(t sim.Time, s sim.AllocStats, liveComponents int) {
	if r == nil {
		return
	}
	r.note(t)
	// Same-instant batches supersede each other: keep the last state.
	if n := len(r.allocSamples); n > 0 && r.allocSamples[n-1].t == t {
		r.allocSamples[n-1] = allocSample{t: t, stats: s, live: liveComponents}
		return
	}
	r.allocSamples = append(r.allocSamples, allocSample{t: t, stats: s, live: liveComponents})
}

// MetaSample records the metadata plane's cumulative per-shard op counts
// after a charged plane operation (the metaplane.Sampler hook). shards and
// ops are parallel slices ordered by shard id; both are caller scratch and
// are copied, not retained.
func (r *Recorder) MetaSample(t sim.Time, shards []int, ops []int64) {
	if r == nil {
		return
	}
	r.note(t)
	// Same-instant ops supersede each other: keep the last state.
	if n := len(r.metaSamples); n > 0 && r.metaSamples[n-1].t == t {
		r.metaSamples[n-1].shards = append(r.metaSamples[n-1].shards[:0], shards...)
		r.metaSamples[n-1].ops = append(r.metaSamples[n-1].ops[:0], ops...)
		return
	}
	r.metaSamples = append(r.metaSamples, metaSample{
		t:      t,
		shards: append([]int(nil), shards...),
		ops:    append([]int64(nil), ops...),
	})
}

// LeaseSample records the metadata plane's cumulative lease and split
// counters after a follower read, forwarded read, or migration batch (the
// metaplane.LeaseSampler hook).
func (r *Recorder) LeaseSample(t sim.Time, grants, followerReads, forwardedReads, splitRecords int64) {
	if r == nil {
		return
	}
	r.note(t)
	s := leaseSample{t: t, grants: grants, follower: followerReads,
		forwarded: forwardedReads, splitRecords: splitRecords}
	// Same-instant updates supersede each other: keep the last state.
	if n := len(r.leaseSamples); n > 0 && r.leaseSamples[n-1].t == t {
		r.leaseSamples[n-1] = s
		return
	}
	r.leaseSamples = append(r.leaseSamples, s)
}

// CASSample records the content-addressed store's cumulative logical and
// physical flush bytes plus the dead bytes pending GC — the
// logical-vs-physical counter track of the dedup layer.
func (r *Recorder) CASSample(t sim.Time, logical, physical, dead int64) {
	if r == nil {
		return
	}
	r.note(t)
	// Same-instant updates supersede each other: keep the last state.
	if n := len(r.casSamples); n > 0 && r.casSamples[n-1].t == t {
		r.casSamples[n-1] = casSample{t: t, logical: logical, physical: physical, dead: dead}
		return
	}
	r.casSamples = append(r.casSamples, casSample{t: t, logical: logical, physical: physical, dead: dead})
}

// ParallelSample records one worker-pool batch (sim.ParallelTracer hook):
// its fan-out width, task and flow counts, and the per-worker task split.
// perWorker is engine scratch and is accumulated, not retained.
func (r *Recorder) ParallelSample(t sim.Time, workers, components, flows int, perWorker []int64) {
	if r == nil {
		return
	}
	r.note(t)
	r.parallelSamples = append(r.parallelSamples, parallelSample{
		t: t, workers: workers, components: components, flows: flows,
		perWorker: append([]int64(nil), perWorker...),
	})
	if len(r.workerTasks) < len(perWorker) {
		grown := make([]int64, len(perWorker))
		copy(grown, r.workerTasks)
		r.workerTasks = grown
	}
	for i, n := range perWorker {
		r.workerTasks[i] += n
	}
}

// Events returns the total number of recorded track events (spans and
// instants), for tests and reporting.
func (r *Recorder) Events() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, tr := range r.tracks {
		n += len(tr.events)
	}
	return n
}

// Flows returns the number of recorded fluid transfers.
func (r *Recorder) Flows() int {
	if r == nil {
		return 0
	}
	return len(r.flows)
}
