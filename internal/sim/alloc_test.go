package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// A resource degraded to zero capacity must park its flows (rate 0, no
// progress, no stall-forever busy loop) and resume them when a recompute
// sees the capacity restored; Utilization must report 0, not NaN.
func TestDegradeToZeroParksAndResumes(t *testing.T) {
	e := NewEngine()
	nic := NewResource("nic", 100)
	disk := NewResource("disk", 100)
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
		if u := disk.Utilization(); u != 0 || math.IsNaN(u) {
			t.Errorf("Utilization of zero-capacity resource = %v, want 0", u)
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
	if u := disk.Utilization(); u != 0 {
		t.Errorf("idle Utilization = %v, want 0", u)
	}
}

// A flow started while its path already crosses a zero-capacity resource
// must park immediately instead of dividing by zero, and run once the
// capacity comes back.
func TestStartAcrossZeroCapacityResource(t *testing.T) {
	e := NewEngine()
	r := NewResource("link", 50)
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
	return sc
}

// prunedResources totals the non-binding resources the engine's solver
// scratch has kept out of the share heap.
func prunedResources(e *Engine) int64 { return e.flows.solve.pruned }

// run executes the scenario with the differential check on or off and
// returns each flow's completion time (exactly as computed), the final
// clock, the number of differential checks that passed, and the number of
// resources the solver pruned as non-binding.
func (sc scenario) run(t *testing.T, diff bool) ([]Time, Time, int64, int64) {
	t.Helper()
	e := NewEngine()
	e.SetDifferentialCheck(diff)
	rs := make([]*Resource, len(sc.caps))
	for i, c := range sc.caps {
		rs[i] = NewResource("r", c)
	}
	completed := make([]Time, len(sc.flows))
	for i := range completed {
		completed[i] = -1
	}
	for i, f := range sc.flows {
		i, f := i, f
		e.At(f.start, func() {
			path := make([]*Resource, len(f.path))
			for j, ri := range f.path {
				path[j] = rs[ri]
			}
			e.StartTransfer(f.size, func() { completed[i] = e.Now() }, path...)
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
	return completed, end, e.AllocStats().DiffChecks, prunedResources(e)
}

// The incremental component-based allocator must match the global
// reference solver bitwise on randomized overlapping topologies with
// capacity changes and outages: every trial runs with the differential
// check armed (which panics on the first diverging rate), and the checked
// run's completion times must equal an unchecked run's exactly, so the
// oracle cannot perturb the simulation it verifies. The scenarios' wide
// fabric must make the solver prune non-binding resources, so the oracle
// covers that path too.
func TestAllocEquivalenceRandomized(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	var pruned int64
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		sc := randomScenario(r)
		checked, checkedEnd, checks, n := sc.run(t, true)
		plain, plainEnd, _, _ := sc.run(t, false)
		pruned += n
		if checks == 0 {
			t.Fatalf("trial %d: differential check armed but never ran", trial)
		}
		if checkedEnd != plainEnd {
			t.Fatalf("trial %d: final clock %v (checked) != %v (unchecked)", trial, checkedEnd, plainEnd)
		}
		for i := range checked {
			if checked[i] == -1 || plain[i] == -1 {
				t.Fatalf("trial %d: flow %d never completed (checked=%v unchecked=%v)", trial, i, checked[i], plain[i])
			}
			if checked[i] != plain[i] {
				t.Fatalf("trial %d: flow %d completion %v (checked) != %v (unchecked)",
					trial, i, float64(checked[i]), float64(plain[i]))
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no trial pruned a non-binding resource; the pruning path went untested")
	}
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
			got, _, checks, pruned := tc.sc.run(t, true)
			if checks == 0 {
				t.Fatal("differential check armed but never ran")
			}
			for i, w := range tc.want {
				if math.Abs(float64(got[i]-w)) > 1e-9*float64(w) {
					t.Errorf("flow %d completed at t=%v, want %v", i, float64(got[i]), float64(w))
				}
			}
			if (pruned > 0) != tc.wantPruned {
				t.Errorf("pruned %d resources, want pruning=%v", pruned, tc.wantPruned)
			}
		})
	}
}

// The differential mode must actually run: every dirty batch cross-checks
// the incremental rates against the reference solver.
func TestDifferentialCheckCountsBatches(t *testing.T) {
	e := NewEngine()
	e.SetDifferentialCheck(true)
	r1 := NewResource("a", 100)
	r2 := NewResource("b", 100)
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
	narrowed := NewResource("narrowed", 100)
	shared := NewResource("shared", 100)
	e.StartTransfer(1000, nil, narrowed, shared)
	e.At(1, func() {
		narrowed.Capacity = 50
		e.StartTransfer(100, nil, shared)
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `resource "narrowed" capacity changed`) {
			t.Fatalf("panic = %q, want one naming the mutated resource", msg)
		}
	}()
	e.Run()
}

// The contract binds only while flows cross the resource: a resource no
// active flow crosses may change capacity without a recompute, and the
// next flow over it runs at the new capacity with the oracle quiet.
func TestCapacityChangeOnIdleResourceNeedsNoRecompute(t *testing.T) {
	e := NewEngine()
	e.SetDifferentialCheck(true)
	r := NewResource("idle", 100)
	var done Time
	e.StartTransfer(100, nil, r) // finishes at t=1
	e.At(2, func() {
		r.Capacity = 50
		e.StartTransfer(100, func() { done = e.Now() }, r)
	})
	e.Run()
	if done != 4 {
		t.Errorf("flow over the idle-changed resource finished at t=%v, want 4", float64(done))
	}
}
