package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"univistor/internal/sim"
)

// runScenario drives a small deterministic two-proc simulation with the
// recorder attached: distinct resource capacities keep the fair-share
// allocation (and hence the sampled timelines) stable across runs.
func runScenario(rec *Recorder) {
	e := sim.NewEngine()
	e.SetTracer(rec)
	nic := e.NewResource("nic", 100)
	disk := e.NewResource("disk", 40)
	for i := 0; i < 2; i++ {
		i := i
		e.Go([]string{"rank0", "rank1"}[i], func(p *sim.Proc) {
			p.Sleep(float64(i)) // stagger the ranks
			sp := rec.Begin(p, CatWrite, "write-at")
			p.Transfer(200, nic, disk)
			sp.End(p.Now())
			rec.Mark(p, CatFlush, "flush-complete")
			sp = rec.Begin(p, CatMPI, "barrier")
			p.Sleep(0.5)
			sp.End(p.Now())
		})
	}
	e.Run()
}

func TestRecorderSpansAndInstants(t *testing.T) {
	rec := New()
	runScenario(rec)
	if !rec.Enabled() {
		t.Fatal("recorder should report enabled")
	}
	// 2 ranks × (write-at + flush-complete + barrier) = 6 track events.
	if got := rec.Events(); got != 6 {
		t.Fatalf("Events() = %d, want 6", got)
	}
	if got := rec.Flows(); got != 2 {
		t.Fatalf("Flows() = %d, want 2", got)
	}
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	rep, err := ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateChrome: %v", err)
	}
	if rep.Spans != 4 {
		t.Errorf("spans = %d, want 4", rep.Spans)
	}
	if rep.Flows != 2 {
		t.Errorf("flows = %d, want 2", rep.Flows)
	}
	if got := strings.Join(rep.Resources, ","); got != "disk,nic" {
		t.Errorf("resource tracks = %s, want disk,nic", got)
	}
	if got := strings.Join(rep.Counters, ","); got != "alloc.components,alloc.flows_solved" {
		t.Errorf("counter series = %s, want alloc.components,alloc.flows_solved", got)
	}
	wantCats := []string{"flush", "mpi", "write"}
	if strings.Join(rep.Categories, ",") != strings.Join(wantCats, ",") {
		t.Errorf("categories = %v, want %v", rep.Categories, wantCats)
	}
}

func TestDisabledRecorder(t *testing.T) {
	var rec *Recorder // the disabled recorder
	if rec.Enabled() {
		t.Fatal("nil recorder should report disabled")
	}
	// Every hook is a no-op and must not touch its arguments: a nil proc
	// and nil resources prove no dereference happens.
	sp := rec.Begin(nil, CatWrite, "w")
	sp.End(1)
	rec.Mark(nil, CatFlush, "f")
	rec.Instant(0, "sim", "i")
	rec.FlowBegin(0, 1, 100, nil)
	rec.FlowEnd(1, 1)
	rec.ResourceSample(0, nil, 5)
	rec.Counter(0, "c", 1)
	if rec.Events() != 0 || rec.Flows() != 0 {
		t.Fatal("disabled recorder recorded something")
	}
	if rec.Summarize(4) != nil {
		t.Fatal("disabled recorder should summarize to nil")
	}
	if err := rec.WriteChrome(&bytes.Buffer{}); err == nil {
		t.Fatal("exporting a disabled recorder should error")
	}
}

// TestDisabledRecorderZeroAllocs is the acceptance bar for the disabled
// path: tracing off must add zero allocations to the hot write path.
func TestDisabledRecorderZeroAllocs(t *testing.T) {
	var rec *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		sp := rec.Begin(nil, CatWrite, "write-at")
		rec.Mark(nil, CatFlush, "flush-complete")
		rec.FlowBegin(0, 7, 1024, nil)
		rec.ResourceSample(0, nil, 1e9)
		rec.FlowEnd(1, 7)
		rec.Instant(1, "sim", "tick")
		rec.Counter(1, "alloc.components", 3)
		sp.End(2)
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocated %v times per run, want 0", allocs)
	}
}

func TestSpanDoubleEnd(t *testing.T) {
	rec := New()
	e := sim.NewEngine()
	e.Go("p", func(p *sim.Proc) {
		sp := rec.Begin(p, CatMeta, "op")
		p.Sleep(1)
		sp.End(p.Now())
		p.Sleep(1)
		sp.End(p.Now()) // must not stretch the closed span
	})
	e.Run()
	ev := rec.tracks[0].events[0]
	if ev.Dur != 1 {
		t.Fatalf("span duration = %v, want 1 (second End must be a no-op)", ev.Dur)
	}
}

func TestOpenSpanClampedAtExport(t *testing.T) {
	rec := New()
	e := sim.NewEngine()
	e.Go("p", func(p *sim.Proc) {
		rec.Begin(p, CatMeta, "never-ended")
		p.Sleep(3)
		rec.Mark(p, CatMeta, "tick") // advances maxTime to 3
	})
	e.Run()
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if _, err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("open span exported invalid trace: %v", err)
	}
}

func TestSummarize(t *testing.T) {
	rec := New()
	runScenario(rec)
	s := rec.Summarize(10)
	if s == nil {
		t.Fatal("nil summary")
	}
	byCat := map[string]CategorySummary{}
	for _, c := range s.Spans {
		byCat[c.Category] = c
	}
	if byCat["write"].Count != 2 || byCat["mpi"].Count != 2 {
		t.Fatalf("category counts wrong: %+v", s.Spans)
	}
	w := byCat["write"]
	if w.P50 <= 0 || w.P99 < w.P50 || w.MaxSeconds < w.P99 {
		t.Errorf("write percentiles not ordered: %+v", w)
	}
	if len(s.Resources) != 2 {
		t.Fatalf("resources = %d, want 2", len(s.Resources))
	}
	for _, r := range s.Resources {
		if r.BusyFraction <= 0 || r.BusyFraction > 1 {
			t.Errorf("resource %s busy fraction %v out of (0,1]", r.Name, r.BusyFraction)
		}
		if r.MeanUtilization <= 0 || r.MeanUtilization > 1 {
			t.Errorf("resource %s mean utilization %v out of (0,1]", r.Name, r.MeanUtilization)
		}
	}
	// The disk (capacity 40) is the bottleneck: it should be busier than
	// or as busy as the nic in utilization terms.
	var nic, disk ResourceSummary
	for _, r := range s.Resources {
		switch r.Name {
		case "nic":
			nic = r
		case "disk":
			disk = r
		}
	}
	if disk.MeanUtilization < nic.MeanUtilization {
		t.Errorf("disk utilization %v < nic %v; disk is the bottleneck",
			disk.MeanUtilization, nic.MeanUtilization)
	}
	if len(s.Counters) != 2 || s.Counters[0].Name != "alloc.components" {
		t.Fatalf("counters = %+v, want alloc.components then alloc.flows_solved", s.Counters)
	}
	if c := s.Counters[0]; c.Samples == 0 || c.Peak == 0 || c.Final != 0 {
		t.Errorf("alloc.components = %+v, want samples, a nonzero peak and 0 live at the end", c)
	}
}

// Every dirty-batch solve lands one allocator sample per series, and
// same-instant batches supersede each other.
func TestAllocSampleTimeline(t *testing.T) {
	rec := New()
	e := sim.NewEngine()
	e.SetTracer(rec)
	r := e.NewResource("disk", 40)
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *sim.Proc) {
			p.Sleep(float64(i))
			p.Transfer(20, r)
		})
	}
	e.Run()
	sr := rec.series[rec.seriesIdx["alloc.flows_solved"]]
	if len(sr.points) == 0 {
		t.Fatal("no allocator samples recorded")
	}
	var prev sim.Time = -1
	for _, pt := range sr.points {
		if pt.t <= prev {
			t.Fatalf("allocator samples not strictly increasing in time: %v after %v", pt.t, prev)
		}
		prev = pt.t
	}
	if got, want := sr.points[len(sr.points)-1].v, e.AllocStats().FlowsSolved; got != want {
		t.Errorf("final alloc.flows_solved = %d, want the engine's %d", got, want)
	}
}

// TestCounterSeries pins the series rules: a same-instant sample replaces
// the previous one, series export and summarize in registration order,
// and the summary reports each series' final and peak value.
func TestCounterSeries(t *testing.T) {
	rec := New()
	rec.Counter(1, "b", 5)
	rec.Counter(1, "b", 9) // same instant: replaces 5
	rec.Counter(2, "a", 3)
	rec.Counter(3, "b", 4)
	rec.Counter(3, "a", 7)
	rec.Counter(3, "a", 6) // same instant: replaces 7
	s := rec.Summarize(0)
	want := []CounterSummary{
		{Name: "b", Samples: 2, Final: 4, Peak: 9},
		{Name: "a", Samples: 2, Final: 6, Peak: 6},
	}
	if len(s.Counters) != len(want) {
		t.Fatalf("counters = %+v, want %+v", s.Counters, want)
	}
	for i := range want {
		if s.Counters[i] != want[i] {
			t.Errorf("counter %d = %+v, want %+v", i, s.Counters[i], want[i])
		}
	}
	if s.VirtualSeconds != 3 {
		t.Errorf("virtual seconds = %v, want 3 (counter samples advance the end of time)", s.VirtualSeconds)
	}
	var got []string
	for _, ev := range rec.chromeEvents() {
		if ev.Ph == "C" {
			got = append(got, fmt.Sprintf("%s@%g=%v", ev.Name, ev.Ts, ev.Args["value"]))
		}
	}
	if g, w := strings.Join(got, " "), "b@1e+06=9 b@3e+06=4 a@2e+06=3 a@3e+06=6"; g != w {
		t.Errorf("exported counter events = %s, want %s", g, w)
	}
}
