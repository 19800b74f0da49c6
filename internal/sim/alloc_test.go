package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// A resource degraded to zero capacity must park its flows (rate 0, no
// progress, no stall-forever busy loop) and resume them when a recompute
// sees the capacity restored; the resource's sampled rate must be 0, not
// NaN.
func TestDegradeToZeroParksAndResumes(t *testing.T) {
	e := NewEngine()
	s := &utilSampler{}
	e.SetTracer(s)
	nic := e.NewResource("nic", 100)
	disk := e.NewResource("disk", 100)
	var done Time
	e.Go("w", func(p *Proc) {
		p.Transfer(1000, nic, disk) // alone: 10s at 100 B/s
		done = p.Now()
	})
	e.At(2, func() { // 200 B transferred, 800 B left
		disk.Capacity = 0
		e.RecomputeResources(disk)
	})
	e.At(5, func() {
		if u := s.last[disk]; u != 0 || math.IsNaN(u) {
			t.Errorf("ResourceSample of zero-capacity resource = %v, want 0", u)
		}
		if n := len(e.flows.active); n != 1 {
			t.Errorf("parked flow vanished: %d active flows", n)
		}
		if s := e.AllocStats(); s.ParkedFlows == 0 {
			t.Error("AllocStats.ParkedFlows = 0, want > 0")
		}
	})
	e.At(10, func() { // parked for 8s, then full speed again
		disk.Capacity = 100
		e.RecomputeResources(disk)
	})
	e.Run()
	if done == 0 {
		t.Fatal("flow never completed after capacity restore")
	}
	// 2s of transfer before the outage + 8s parked + 8s for the rest.
	if want := Time(18); math.Abs(float64(done-want)) > 1e-6 {
		t.Errorf("completion at t=%v, want %v", done, want)
	}
	if u := s.last[disk]; u != 0 {
		t.Errorf("idle ResourceSample = %v, want 0", u)
	}
}

// A flow started while its path already crosses a zero-capacity resource
// must park immediately instead of dividing by zero, and run once the
// capacity comes back.
func TestStartAcrossZeroCapacityResource(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("link", 50)
	r.Capacity = 0
	var done Time
	e.Go("w", func(p *Proc) {
		p.Transfer(100, r)
		done = p.Now()
	})
	e.At(4, func() {
		r.Capacity = 50
		e.RecomputeResources(r)
	})
	e.Run()
	if want := Time(6); math.Abs(float64(done-want)) > 1e-6 {
		t.Errorf("completion at t=%v, want %v", done, want)
	}
}

// scenario is one randomized workload for the equivalence property test:
// a shared pool of resources, flows with overlapping random paths and
// staggered starts, and capacity-change events including full outages.
type scenario struct {
	caps   []float64
	flows  []scenFlow
	events []scenEvent
}

type scenFlow struct {
	start Time
	size  float64
	path  []int // resource indices, may repeat across flows
}

type scenEvent struct {
	at   Time
	res  int
	frac float64 // 0 = outage; new capacity = original * frac
}

func randomScenario(r *rand.Rand) scenario {
	var sc scenario
	nres := 2 + r.Intn(12)
	for i := 0; i < nres; i++ {
		sc.caps = append(sc.caps, 10+990*r.Float64())
	}
	nflows := 2 + r.Intn(199)
	for i := 0; i < nflows; i++ {
		plen := 1 + r.Intn(4)
		path := make([]int, plen)
		for j := range path {
			path[j] = r.Intn(nres)
		}
		sc.flows = append(sc.flows, scenFlow{
			start: Time(r.Float64() * 20),
			size:  1 + 5000*r.Float64(),
			path:  path,
		})
	}
	for i := 0; i < r.Intn(6); i++ {
		frac := 0.0
		if r.Intn(2) == 0 {
			frac = 0.05 + 0.9*r.Float64()
		}
		sc.events = append(sc.events, scenEvent{
			at:   Time(r.Float64() * 30),
			res:  r.Intn(nres),
			frac: frac,
		})
	}
	// A wide "fabric" crossed by a random subset of flows: usually too
	// wide to ever bind, so the solver keeps it out of its share heap,
	// unless a degrade event narrows it into a bottleneck.
	fabric := len(sc.caps)
	sc.caps = append(sc.caps, 1e3*(50+200*r.Float64()))
	for i := range sc.flows {
		if r.Intn(2) == 0 {
			sc.flows[i].path = append(sc.flows[i].path, fabric)
		}
	}
	if r.Intn(2) == 0 {
		sc.events = append(sc.events, scenEvent{
			at:   Time(r.Float64() * 30),
			res:  fabric,
			frac: 0.001 + 0.01*r.Float64(),
		})
	}
	// Two islands, each crossed by one long flow of its own from early
	// on: a capacity change re-solves the first alone, under a new
	// generation, and a later flow bridges the two, merging components
	// last solved under different generations.
	a, b := len(sc.caps), len(sc.caps)+1
	sc.caps = append(sc.caps, 10+990*r.Float64(), 10+990*r.Float64())
	sc.flows = append(sc.flows,
		scenFlow{start: Time(r.Float64() * 5), size: 2e4 * (1 + r.Float64()), path: []int{a}},
		scenFlow{start: Time(r.Float64() * 5), size: 2e4 * (1 + r.Float64()), path: []int{b}},
		scenFlow{start: Time(10 + r.Float64()*10), size: 1 + 5000*r.Float64(), path: []int{a, b}})
	at := Time(5 + r.Float64()*5)
	sc.events = append(sc.events, scenEvent{at: at, res: a, frac: 0.05 + 0.9*r.Float64()})
	// The second island's capacity moves at the same instant, in a
	// recompute of its own: the completion schedule after it takes the
	// first island's minimum, and every other component's, again.
	sc.events = append(sc.events, scenEvent{at: at, res: b, frac: 0.5})
	return sc
}

// run executes the scenario with the differential check on or off and
// the given tracer attached (nil for none), and returns each flow's
// completion time (exactly as computed), the final clock, the allocator
// counters, and the solver's set-up diagnostics (pruned resources and
// order maintenance).
func (sc scenario) run(t *testing.T, diff bool, tr Tracer) ([]Time, Time, AllocStats, solveCounts) {
	t.Helper()
	e := NewEngine()
	e.SetDifferentialCheck(diff)
	if tr != nil {
		e.SetTracer(tr)
	}
	rs := make([]*Resource, len(sc.caps))
	for i, c := range sc.caps {
		rs[i] = e.NewResource("r", c)
	}
	completed := make([]Time, len(sc.flows))
	for i := range completed {
		completed[i] = -1
	}
	for i, f := range sc.flows {
		path := make([]*Resource, len(f.path))
		for j, ri := range f.path {
			path[j] = rs[ri]
		}
		e.Go("flow", func(p *Proc) {
			p.Sleep(float64(f.start))
			p.Transfer(f.size, path...)
			completed[i] = p.Now()
		})
	}
	for _, ev := range sc.events {
		ev := ev
		e.At(ev.at, func() {
			rs[ev.res].Capacity = sc.caps[ev.res] * ev.frac
			e.RecomputeResources(rs[ev.res])
		})
	}
	// Lift every outage late so parked flows finish and the runs compare
	// complete executions.
	e.At(1000, func() {
		for i, r := range rs {
			r.Capacity = sc.caps[i]
		}
		e.RecomputeResources(rs...)
	})
	end := e.Run()
	return completed, end, e.AllocStats(), e.flows.solve.counts
}

// The incremental component-based allocator must match the global
// reference solver bitwise on randomized overlapping topologies with
// capacity changes and outages: every trial runs with the differential
// check armed (which panics on the first diverging rate), and the checked
// run's completion times must equal an unchecked run's exactly, so the
// oracle cannot perturb the simulation it verifies. A tracer only
// observes: the rate samples are summed only when one is attached, so a
// traced checked run must give bitwise the checked run's completion times
// and allocator counters. The scenarios' wide fabric must make the solver
// prune non-binding resources, and the trials must take every path that
// maintains a component's order (a resource inserted, an order absorbed
// by a merge, an ordered resource closed) and every set-up path (one
// visiting only changed resources, leaving others unvisited and closing
// a resource; one visiting every resource after a generation move; a
// merge of components last solved under different generations), set and
// clear flows' mask bits as admissions change, and take a component's
// completion minimum a second time at one instant, so the oracle covers
// those paths too.
func TestAllocEquivalenceRandomized(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	var counts solveCounts
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		sc := randomScenario(r)
		checked, checkedEnd, stats, n := sc.run(t, true, nil)
		plain, plainEnd, _, _ := sc.run(t, false, nil)
		s := &utilSampler{}
		traced, tracedEnd, tracedStats, _ := sc.run(t, true, s)
		counts.add(n)
		if stats.DiffChecks == 0 {
			t.Fatalf("trial %d: differential check armed but never ran", trial)
		}
		if len(s.order) == 0 {
			t.Fatalf("trial %d: the tracer recorded no resource sample", trial)
		}
		if checkedEnd != plainEnd || checkedEnd != tracedEnd {
			t.Fatalf("trial %d: final clock %v (checked) != %v (unchecked) or %v (traced)", trial, checkedEnd, plainEnd, tracedEnd)
		}
		if tracedStats != stats {
			t.Fatalf("trial %d: traced run's allocator counters %+v != untraced %+v", trial, tracedStats, stats)
		}
		for i := range checked {
			if checked[i] == -1 || plain[i] == -1 {
				t.Fatalf("trial %d: flow %d never completed (checked=%v unchecked=%v)", trial, i, checked[i], plain[i])
			}
			if checked[i] != plain[i] || checked[i] != traced[i] {
				t.Fatalf("trial %d: flow %d completion %v (checked) != %v (unchecked) or %v (traced)",
					trial, i, float64(checked[i]), float64(plain[i]), float64(traced[i]))
			}
		}
	}
	t.Logf("set-up counts over %d trials: %+v", trials, counts)
	for _, c := range []struct {
		n    int64
		what string
	}{
		{counts.pruned, "pruned a non-binding resource"},
		{counts.moved, "inserted a resource into an order"},
		{counts.absorbed, "absorbed an order in a merge"},
		{counts.closed, "closed an ordered resource"},
		{counts.changedOnly, "ran a changed-only set-up"},
		{counts.skipped, "left a resource unvisited in set-up"},
		{counts.changedClosed, "closed a resource in a changed-only set-up"},
		{counts.full, "ran a full set-up"},
		{counts.mixedMerges, "merged components solved under different generations"},
		{counts.maskOn, "set the mask bits of an admitted resource"},
		{counts.maskOff, "cleared the mask bits of a resource left out"},
		{counts.minReused, "took a component's completion minimum again at one instant"},
	} {
		if c.n == 0 {
			t.Errorf("no trial %s; that path went untested", c.what)
		}
	}
}

// add accumulates another run's counts.
func (c *solveCounts) add(o solveCounts) {
	c.pruned += o.pruned
	c.skipped += o.skipped
	c.moved += o.moved
	c.dropped += o.dropped
	c.absorbed += o.absorbed
	c.closed += o.closed
	c.changedOnly += o.changedOnly
	c.full += o.full
	c.changedClosed += o.changedClosed
	c.mixedMerges += o.mixedMerges
	c.maskOn += o.maskOn
	c.maskOff += o.maskOff
	c.minReused += o.minReused
}

// Pruning non-binding resources out of the share heap must be exact at
// its edges. Every case runs with the differential check armed, so any
// rate that differs from the reference solver's panics; the completion
// times pin the rates, and wantPruned whether the case hit the pruning
// path at all.
func TestNonBindingPruning(t *testing.T) {
	cases := []struct {
		name       string
		sc         scenario
		want       []Time
		wantPruned bool
	}{
		{
			// 4 flows of 100 B/s under a 10 kB/s fabric: pruned. Narrowed
			// to 200 B/s at t=2 it binds (50 B/s each); restored at t=5 it
			// is pruned again. 200 + 150 bytes by t=5, 650 more at 100 B/s.
			name: "fabric degraded to binding and restored",
			sc: scenario{
				caps: []float64{1e4, 100, 100, 100, 100},
				flows: []scenFlow{
					{size: 1000, path: []int{1, 0}},
					{size: 1000, path: []int{2, 0}},
					{size: 1000, path: []int{3, 0}},
					{size: 1000, path: []int{4, 0}},
				},
				events: []scenEvent{{at: 2, res: 0, frac: 0.02}, {at: 5, res: 0, frac: 1}},
			},
			want:       []Time{11.5, 11.5, 11.5, 11.5},
			wantPruned: true,
		},
		{
			// [r, r]: each crossing's bound is the other crossing's
			// capacity, so the sum is 2·cap and r stays; it grants 50 B/s.
			name: "repeated crossing of a lone resource",
			sc: scenario{
				caps:  []float64{100},
				flows: []scenFlow{{size: 500, path: []int{0, 0}}},
			},
			want: []Time{10},
		},
		{
			// The wide resource is crossed twice, each crossing bounded by
			// the 100 B/s narrow one: pruned.
			name: "repeated crossing of a wide resource",
			sc: scenario{
				caps:  []float64{100, 1e6},
				flows: []scenFlow{{size: 500, path: []int{0, 1, 1}}},
			},
			want:       []Time{5},
			wantPruned: true,
		},
		{
			// A single-resource flow's bound is +Inf, so the wide resource
			// it crosses can never be pruned; the other flow binds on the
			// narrow one at 100 B/s and the single-resource flow takes the
			// rest, then the whole capacity.
			name: "single-resource flow",
			sc: scenario{
				caps: []float64{1e6, 100},
				flows: []scenFlow{
					{size: 1e6, path: []int{0}},
					{size: 100, path: []int{1, 0}},
				},
			},
			want: []Time{1.0001, 1},
		},
		{
			// Paths spanning more than 12 orders of magnitude, where the
			// share-floor term 1e-12·max dominates the bound: the 1e27
			// resource is pruned by a bound of 1e-12·1e27 = 1e15 B/s from
			// the flow that also crosses the 1e13 resource.
			name: "capacity ratio above 1e12",
			sc: scenario{
				caps: []float64{1e-3, 1e13, 1e27},
				flows: []scenFlow{
					{size: 1e-3, path: []int{0, 1}},
					{size: 1e13, path: []int{1, 2}},
				},
			},
			want:       []Time{1, 1},
			wantPruned: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, _, stats, counts := tc.sc.run(t, true, nil)
			if stats.DiffChecks == 0 {
				t.Fatal("differential check armed but never ran")
			}
			for i, w := range tc.want {
				if math.Abs(float64(got[i]-w)) > 1e-9*float64(w) {
					t.Errorf("flow %d completed at t=%v, want %v", i, float64(got[i]), float64(w))
				}
			}
			if (counts.pruned > 0) != tc.wantPruned {
				t.Errorf("pruned %d resources, want pruning=%v", counts.pruned, tc.wantPruned)
			}
		})
	}
}

// The differential mode must actually run: every dirty batch cross-checks
// the incremental rates against the reference solver.
func TestDifferentialCheckCountsBatches(t *testing.T) {
	e := NewEngine()
	e.SetDifferentialCheck(true)
	r1 := e.NewResource("a", 100)
	r2 := e.NewResource("b", 100)
	e.Go("w1", func(p *Proc) { p.Transfer(300, r1) })
	e.Go("w2", func(p *Proc) { p.Transfer(300, r1, r2) })
	e.Go("w3", func(p *Proc) { p.Transfer(300, r2) })
	e.Run()
	s := e.AllocStats()
	if s.DiffChecks == 0 {
		t.Fatal("differential mode enabled but DiffChecks = 0")
	}
	if s.Recomputes == 0 || s.ComponentsSolved == 0 {
		t.Fatalf("allocator counters empty: %+v", s)
	}
}

// Capacity follows a mutate-then-recompute contract: the solver caches
// facts derived from it, so a change without RecomputeResources would
// leave them stale. Under the differential check the next solve must
// panic and name the mutated resource, here on a solve that an unrelated
// flow start triggers.
func TestCapacityChangeWithoutRecomputePanics(t *testing.T) {
	e := NewEngine()
	e.SetDifferentialCheck(true)
	narrowed := e.NewResource("narrowed", 100)
	shared := e.NewResource("shared", 100)
	e.Go("long", func(p *Proc) { p.Transfer(1000, narrowed, shared) })
	e.Go("late", func(p *Proc) {
		p.Sleep(1)
		narrowed.Capacity = 50
		p.Transfer(100, shared)
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `resource "narrowed" capacity changed`) {
			t.Fatalf("panic = %q, want one naming the mutated resource", msg)
		}
	}()
	e.Run()
}

// A component's order must stay sorted by (initial share, id) between
// solves, since a solve pops its untouched entries front to back. Under
// the differential check, two swapped entries must panic at the next
// batch, here a solve of an unrelated component.
func TestOrderOutOfSortPanics(t *testing.T) {
	e := NewEngine()
	e.SetDifferentialCheck(true)
	narrow := e.NewResource("narrow", 50)
	wide := e.NewResource("wide", 300)
	other := e.NewResource("other", 100)
	e.Go("a", func(p *Proc) { p.Transfer(1000, narrow, wide) })
	e.Go("b", func(p *Proc) { p.Transfer(1000, wide) })
	e.Go("late", func(p *Proc) {
		p.Sleep(1)
		order := narrow.comp.order
		if len(order) != 2 || order[0].res != narrow || order[1].res != wide {
			t.Errorf("order before the swap holds %d entries, want narrow (key 50) then wide (key 150)", len(order))
		}
		order[0], order[1] = order[1], order[0]
		p.Transfer(100, other)
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"narrow", key 50) does not follow entry 0 ("wide", key 150)`) {
			t.Fatalf("panic = %q, want one naming the swapped entries", msg)
		}
	}()
	e.Run()
}

// The max-min certificate judges rates without either solver's pop order.
// Flow b is held to 20 B/s by narrow and a takes the other 80 of shared.
// Raised above that, a over-fills shared; lowered, a crosses no saturated
// resource. Each must panic naming what failed.
func TestMaxMinCertificatePanics(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		want  string
	}{
		{1.5, `resource "shared" carries 140 B/s over a capacity of 100 B/s`},
		{0.5, `flow seq=1 path=[shared] at rate 40 crosses no saturated resource`},
	} {
		e := NewEngine()
		shared := e.NewResource("shared", 100)
		narrow := e.NewResource("narrow", 20)
		e.Go("a", func(p *Proc) { p.Transfer(1000, shared) })
		e.Go("b", func(p *Proc) { p.Transfer(1000, shared, narrow) })
		runTo(e, 0)
		e.flows.verifyMaxMin() // the solver's rates pass
		e.flows.active[0].rate *= tc.scale
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("rate ×%v: panic = %q, want one containing %q", tc.scale, msg, tc.want)
				}
			}()
			e.flows.verifyMaxMin()
		}()
	}
}

// A flow's mask reaches only the first maskBits crossings of its path; the
// freezes charge every later crossing by walking it. Flow a crosses 70
// resources, all 1 kB/s but r2 (120 B/s, shared with c) and r66 (150 B/s,
// shared with b); the others are pruned. r2 binds first at 60 B/s for a
// and c, and a's freeze charges r66, past the mask, so b gets the 90 B/s
// left instead of an even 75: it finishes at t=5, not 6. After b, r66 is
// pruned too, with no mask bit to clear. The differential check runs
// armed throughout.
func TestPathPastMaskReach(t *testing.T) {
	sc := scenario{caps: make([]float64, 70)}
	path := make([]int, 70)
	for i := range path {
		path[i] = i
		sc.caps[i] = 1000
	}
	sc.caps[2], sc.caps[66] = 120, 150
	sc.flows = []scenFlow{
		{size: 600, path: path},
		{size: 450, path: []int{66}},
		{size: 600, path: []int{2}},
	}
	got, _, stats, counts := sc.run(t, true, nil)
	if stats.DiffChecks == 0 {
		t.Fatal("differential check armed but never ran")
	}
	for i, want := range []Time{10, 5, 10} {
		if math.Abs(float64(got[i]-want)) > 1e-9*float64(want) {
			t.Errorf("flow %d completed at t=%v, want %v", i, float64(got[i]), float64(want))
		}
	}
	if counts.pruned < 68 {
		t.Errorf("pruned %d resources, want the 68 wide ones", counts.pruned)
	}
}

// Every flow's mask must mark exactly its crossings of resources in the
// water-fill, since the freezes charge only those. Under the differential
// check, one bit cleared must panic at the next batch, here a solve of an
// unrelated component.
func TestMaskOutOfStepPanics(t *testing.T) {
	e := NewEngine()
	e.SetDifferentialCheck(true)
	narrow := e.NewResource("narrow", 50)
	wide := e.NewResource("wide", 300)
	other := e.NewResource("other", 100)
	e.Go("a", func(p *Proc) { p.Transfer(1000, wide, narrow) })
	e.Go("b", func(p *Proc) { p.Transfer(1000, wide) })
	e.Go("late", func(p *Proc) {
		p.Sleep(1)
		f := e.flows.active[0]
		if f.mask != 0b11 {
			t.Errorf("flow a's mask before the change is %b, want 11 (both crossings admitted)", f.mask)
		}
		f.mask = 0b10
		p.Transfer(100, other)
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "flow seq=1 path=[wide narrow]: mask 10 != its crossings' ordered flags 11") {
			t.Fatalf("panic = %q, want one naming the flow and both masks", msg)
		}
	}()
	e.Run()
}

// A resource's inMask flag decides whether a change of its admission walks
// its crossing list, so it must equal the ordered flag after every batch.
// Under the differential check, a flag flipped must panic at the next
// batch, here a solve of an unrelated component.
func TestInMaskOutOfStepPanics(t *testing.T) {
	e := NewEngine()
	e.SetDifferentialCheck(true)
	narrow := e.NewResource("narrow", 50)
	other := e.NewResource("other", 100)
	e.Go("a", func(p *Proc) { p.Transfer(1000, narrow) })
	e.Go("late", func(p *Proc) {
		p.Sleep(1)
		narrow.st.inMask = false
		p.Transfer(100, other)
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `resource "narrow": flagged inMask=false but ordered=true`) {
			t.Fatalf("panic = %q, want one naming the resource and both flags", msg)
		}
	}()
	e.Run()
}

// The completion schedule takes each component's earliest finish time
// from its solve, or from an earlier walk at the same instant. Under the
// differential check a stale minimum must panic: here one component's
// minimum is pushed later at the instant of its last solve, and a
// recompute with nothing to solve schedules completions again.
func TestStaleCompletionMinimumPanics(t *testing.T) {
	e := NewEngine()
	e.SetDifferentialCheck(true)
	a := e.NewResource("a", 100)
	b := e.NewResource("b", 100)
	e.Go("a", func(p *Proc) { p.Transfer(100, a) })
	e.Go("b", func(p *Proc) { p.Transfer(1000, b) })
	runTo(e, 0)
	c := a.comp
	if c.minAt != 0 || c.minT != 1 {
		t.Fatalf("component of a holds minimum %v taken at t=%v, want 1 taken at t=0", float64(c.minT), float64(c.minAt))
	}
	c.minT = 5
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "earliest completion at t=0 from the component minima is 5, but a walk of every active flow gives 1") {
			t.Fatalf("panic = %q, want one naming both times", msg)
		}
	}()
	e.RecomputeResources()
}

// add invalidates the completion minimum of the component it changes. The
// engine solves that component before it schedules completions again, and
// the solve retakes the minimum, but the minimum must follow the flow set
// by itself: here a flow joins a solved component, merging in one whose
// flow finishes first, and completions are scheduled at the same instant
// before any solve. The differential check compares the result with a walk
// of every active flow.
func TestCompletionMinimumFollowsAdd(t *testing.T) {
	e := NewEngine()
	e.SetDifferentialCheck(true)
	a := e.NewResource("a", 100)
	b := e.NewResource("b", 100)
	e.Go("a", func(p *Proc) { p.Transfer(100, a) })
	e.Go("b", func(p *Proc) { p.Transfer(500, b) })
	e.Go("b", func(p *Proc) { p.Transfer(500, b) })
	runTo(e, 0)
	e.flows.add(&flow{resources: []*Resource{a, b}, remaining: 100})
	e.flows.scheduleCompletion()
	if c := b.comp; c != a.comp || c.minT != 1 {
		t.Errorf("merged component's earliest finish is %v, want 1 (the flow on a)", float64(c.minT))
	}
}

// The contract binds only while flows cross the resource: a resource no
// active flow crosses may change capacity without a recompute, and the
// next flow over it runs at the new capacity with the oracle quiet.
func TestCapacityChangeOnIdleResourceNeedsNoRecompute(t *testing.T) {
	e := NewEngine()
	e.SetDifferentialCheck(true)
	r := e.NewResource("idle", 100)
	var done Time
	e.Go("w", func(p *Proc) {
		p.Transfer(100, r) // finishes at t=1
		p.Sleep(1)
		r.Capacity = 50
		p.Transfer(100, r)
		done = p.Now()
	})
	e.Run()
	if done != 4 {
		t.Errorf("flow over the idle-changed resource finished at t=%v, want 4", float64(done))
	}
}
