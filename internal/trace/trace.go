// Package trace is the structured event-tracing and telemetry subsystem:
// typed spans and instant events keyed by virtual sim.Time, per-process
// append-only buffers, fluid-flow async events, per-resource rate samples
// (utilization timelines), and named counter series. Recordings export to
// Chrome trace-event JSON (loadable in Perfetto, see export.go) and to a
// compact summary with per-category duration percentiles, per-resource
// busy fractions, and each series' final and peak value (see summary.go).
//
// The recorder is designed so that *disabled tracing costs one nil check*:
// every method on a nil *Recorder returns immediately without touching its
// arguments, so instrumentation sites pass a possibly-nil recorder and
// never branch themselves. The simulation engine runs every process as a
// coroutine on the goroutine that calls Run, so event appends need no
// locks; buffers are plain slices grown in the emitting track.
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

// timeline is one resource's rate timeline.
type timeline struct {
	name     string
	capacity float64
	samples  []sample
}

// point is one sample of a named counter series.
type point struct {
	t sim.Time
	v int64
}

// series is one named counter time series (see Recorder.Counter).
type series struct {
	name   string
	points []point
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

	timelines     map[*sim.Resource]*timeline
	timelineOrder []*sim.Resource // registration order, for deterministic export

	series    []series         // named counter series, in registration order
	seriesIdx map[string]int32 // series name -> index into series

	maxTime sim.Time // latest event time seen; clamps still-open spans
}

// The recorder is the engine's tracing sink.
var _ sim.Tracer = (*Recorder)(nil)

// New returns an empty enabled recorder.
func New() *Recorder {
	return &Recorder{
		byProc:    map[int64]int32{},
		byName:    map[string]int32{},
		flowIdx:   map[int64]int32{},
		timelines: map[*sim.Resource]*timeline{},
		seriesIdx: map[string]int32{},
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
	c := r.timelines[res]
	if c == nil {
		c = &timeline{name: res.Name, capacity: res.Capacity}
		r.timelines[res] = c
		r.timelineOrder = append(r.timelineOrder, res)
	}
	r.note(t)
	// Same-instant recomputes supersede each other: keep the last value.
	if n := len(c.samples); n > 0 && c.samples[n-1].t == t {
		c.samples[n-1].rate = rate
		return
	}
	c.samples = append(c.samples, sample{t: t, rate: rate})
}

// Counter records the value of the named series at time t — the one way
// every layer records a counter (allocator components, per-shard
// metadata ops, lease counts, dedup bytes, solver-pool tasks). Series
// export in registration order as Perfetto counter tracks and digest into
// the summary's counters block. A sample at the same virtual instant as
// the series' previous one replaces it. Hot callers pass a name they
// built once, never one formatted per sample.
func (r *Recorder) Counter(t sim.Time, name string, v int64) {
	if r != nil {
		r.counter(t, name, v)
	}
}

// counter is Counter's body, kept out of line so that the disabled
// recorder's nil check inlines at every call site.
func (r *Recorder) counter(t sim.Time, name string, v int64) {
	i, ok := r.seriesIdx[name]
	if !ok {
		i = int32(len(r.series))
		r.series = append(r.series, series{name: name})
		r.seriesIdx[name] = i
	}
	r.note(t)
	s := &r.series[i]
	if n := len(s.points); n > 0 && s.points[n-1].t == t {
		s.points[n-1].v = v
		return
	}
	s.points = append(s.points, point{t: t, v: v})
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
