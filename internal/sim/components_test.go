package sim

import (
	"strings"
	"testing"
)

// Components only merge: two hub resources joined by short-lived bridge
// flows stay one component after the bridges finish, and solving it as one
// water-fill still frees each side's bandwidth for its remaining flows,
// exactly as solving the two sides apart would. Every rate in this
// topology is exactly representable, so completion times are asserted
// with exact float equality.
func TestComponentSplitRestoresRates(t *testing.T) {
	e := NewEngine()
	a := NewResource("a", 120)
	b := NewResource("b", 120)
	var t1, t2, t3 Time
	bridgesDone := 0
	e.At(0, func() {
		// Water-fill at t=0: a carries 6 flows (fair share 20, the
		// bottleneck), so f1, f2, and the four bridges run at 20; b's
		// leftover 120-4*20 = 40 goes to f3.
		e.StartTransfer(10000, func() { t1 = e.Now() }, a)
		e.StartTransfer(10000, func() { t2 = e.Now() }, a)
		e.StartTransfer(12200, func() { t3 = e.Now() }, b)
		for i := 0; i < 4; i++ {
			e.StartTransfer(100, func() { bridgesDone++ }, a, b)
		}
	})
	// All four bridges complete together at t=5 (100 bytes at rate 20),
	// leaving {f1,f2} on a and {f3} on b in one component that no flow
	// connects any more.
	e.At(50, func() {
		if bridgesDone != 4 {
			t.Errorf("at t=50: %d bridges done, want 4", bridgesDone)
		}
		if got := len(e.flows.comps); got != 1 {
			t.Errorf("at t=50: %d components, want 1 (components only merge)", got)
		}
		s := e.AllocStats()
		if s.Splits != 0 {
			t.Errorf("at t=50: AllocStats.Splits = %d, want 0", s.Splits)
		}
		if s.Merges == 0 {
			t.Error("at t=50: AllocStats.Merges = 0, want bridge-driven merges")
		}
		// The joint solve re-fills each side's own capacity: f1 and f2
		// share a at 60 each, f3 gets all of b.
		if a.alloc != 120 || b.alloc != 120 {
			t.Errorf("at t=50: alloc a=%v b=%v, want 120/120", a.alloc, b.alloc)
		}
	})
	e.Run()
	// f1/f2: 100 bytes by t=5, then 9900 at rate 60 → t=170.
	// f3: 200 bytes by t=5, then 12000 at rate 120 → t=105.
	if t1 != 170 || t2 != 170 {
		t.Errorf("a-side completions t1=%v t2=%v, want 170 (rate 60 after the bridges)", t1, t2)
	}
	if t3 != 105 {
		t.Errorf("b-side completion t3=%v, want 105 (rate 120 after the bridges)", t3)
	}
	if got := len(e.flows.comps); got != 0 {
		t.Errorf("after drain: %d live components, want 0", got)
	}
}

// A tracer registers resources in the order of their first samples, and
// that order must be the one in which a walk of the component's flows (in
// seq order, each path in order) first meets them, even when a merge
// lists the resources otherwise. Here x (flow 1) and y (flows 2 and 3)
// start as two components; flow 4 bridges them, and the merge keeps the
// larger y, listing its resource before x's.
func TestNewResourcesSampledInFirstCrossingOrder(t *testing.T) {
	e := NewEngine()
	s := &utilSampler{}
	e.SetTracer(s)
	x := NewResource("x", 100)
	y := NewResource("y", 100)
	z := NewResource("z", 100)
	e.StartTransfer(100, nil, x)
	e.StartTransfer(100, nil, y)
	e.StartTransfer(100, nil, y)
	e.StartTransfer(100, nil, z, y, x)
	e.Run()
	var got []string
	for _, r := range s.order {
		got = append(got, r.Name)
	}
	if want := "x y z"; strings.Join(got, " ") != want {
		t.Errorf("first-sample order %v, want %s", got, want)
	}
}

// steadyEngine builds an engine with 4 components of 128 long-lived flows
// each — the steady-state shape of the batch hot path.
func steadyEngine() (*Engine, []*Resource) {
	e := NewEngine()
	e.SetDifferentialCheck(false) // the oracle allocates by design
	var all []*Resource
	for c := 0; c < 4; c++ {
		hub := NewResource("hub", 1000)
		spoke := NewResource("spoke", 800)
		all = append(all, hub, spoke)
		for i := 0; i < 128; i++ {
			if i%2 == 0 {
				e.StartTransfer(1e12, func() {}, hub, spoke)
			} else {
				e.StartTransfer(1e12, func() {}, hub)
			}
		}
	}
	e.RecomputeResources() // fold the pending start batch; grows all scratch
	return e, all
}

// fabricEngine builds one workflow-shaped component: 64 nodes of 24 ranks
// behind a single 10 TB/s fabric, with per-node NIC, PFS-client and two
// socket memory ports, a memory port per rank, and 64 OSTs. Every rank
// runs one long-lived flow: a remote read over the fabric, a PFS write
// through an OST, or a local DRAM write sharing its socket port with the
// reads — 1536 flows in all. The fabric, the socket ports and the PFS
// writers' memory ports (641 of 1857 resources) are non-binding, the shape
// the solver's heap pruning targets.
func fabricEngine() (*Engine, []*Resource) {
	const (
		GB           = 1 << 30
		nodes        = 64
		ranksPerNode = 24
		osts         = 64
	)
	e := NewEngine()
	e.SetDifferentialCheck(false) // the oracle allocates by design
	fabric := NewResource("fabric", 10<<40)
	all := []*Resource{fabric}
	nic := make([]*Resource, nodes)
	pfs := make([]*Resource, nodes)
	mem := make([][2]*Resource, nodes)
	for n := range nic {
		nic[n] = NewResource("nic", 8*GB)
		pfs[n] = NewResource("pfsport", 2.5*GB)
		mem[n] = [2]*Resource{NewResource("mem", 60*GB), NewResource("mem", 60*GB)}
		all = append(all, nic[n], pfs[n], mem[n][0], mem[n][1])
	}
	ost := make([]*Resource, osts)
	for o := range ost {
		ost[o] = NewResource("ost", 1.1*GB)
		all = append(all, ost[o])
	}
	for n := 0; n < nodes; n++ {
		for i := 0; i < ranksPerNode; i++ {
			port := NewResource("memport", 7*GB)
			all = append(all, port)
			sock := mem[n][i%2]
			switch i % 3 {
			case 0:
				e.StartTransfer(1e15, func() {}, port, sock, nic[n], fabric, nic[(n+1)%nodes])
			case 1:
				e.StartTransfer(1e15, func() {}, port, pfs[n], nic[n], fabric, ost[(n*ranksPerNode+i)%osts])
			default:
				e.StartTransfer(1e15, func() {}, port, sock)
			}
		}
	}
	e.RecomputeResources() // fold the pending start batch; grows all scratch
	return e, all
}

// startChurn starts a chain of short flows on fabricEngine's component —
// each one's completion starts the next over the same remote-read path —
// and returns a step that runs the engine through the next completion
// instant: one flow finishes, one starts, and the component is re-solved
// once, with no capacity change. That is the regime the workloads run.
func startChurn(e *Engine, all []*Resource) (step func()) {
	port := NewResource("memport", 7<<30)
	path := []*Resource{port, all[3], all[1], all[0], all[5]} // socket, NIC, fabric, next NIC
	var next func()
	next = func() { e.StartTransfer(64<<20, next, path...) }
	next()
	e.RunUntil(e.Now()) // fold the start batch
	return func() { e.RunUntil(e.events.peek().t) }
}

// The steady-state batch hot path must not allocate: once the engine's
// scratch buffers have grown, a full dirty-batch solve runs
// allocation-free, both for 512 flows over four small components and for
// one fabric-coupled component of 1536 flows, and so does the churn step
// in which one flow finishes and one starts. This is the regression bound
// for the pooled-scratch refactor; the previous implementation allocated
// hundreds of objects per batch (scratch maps, share-heap nodes, sample
// closures).
func TestBatchSolveDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, build := range []func() (*Engine, []*Resource){steadyEngine, fabricEngine} {
		e, all := build()
		allocs := testing.AllocsPerRun(50, func() {
			for _, r := range all {
				r.Capacity *= 0.999
			}
			e.RecomputeResources(all...)
		})
		if allocs > 2 {
			t.Errorf("batch solve of %d flows in %d components allocates %.1f objects/op, want ≤2",
				len(e.flows.active), len(e.flows.comps), allocs)
		}
	}
	e, all := fabricEngine()
	step := startChurn(e, all)
	solves := e.AllocStats().ComponentsSolved
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("churn step allocates %.1f objects/op, want 0", allocs)
	}
	if n := e.AllocStats().ComponentsSolved - solves; n != 51 {
		t.Errorf("51 churn steps solved %d components, want one each", n)
	}
}

// BenchmarkBatchSolve measures the batch hot path — a full capacity-change
// re-solve of 512 active flows across 4 components — with -benchmem
// reporting allocs/op (expected ~0 in steady state).
func BenchmarkBatchSolve(b *testing.B) {
	e, all := steadyEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range all {
			r.Capacity *= 0.999
		}
		e.RecomputeResources(all...)
	}
}

// BenchmarkSolveFabricComponent measures a full re-solve of one
// workflow-shaped component (fabricEngine: 1536 flows over ~1900
// resources, all coupled through the fabric), the regime where the share
// heap dominates the solve.
func BenchmarkSolveFabricComponent(b *testing.B) {
	e, all := fabricEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range all {
			r.Capacity *= 0.999
		}
		e.RecomputeResources(all...)
	}
}

// BenchmarkSolveFabricChurn measures the churn step on fabricEngine's
// component: one flow finishes and one starts, then one re-solve with no
// capacity change, so the solver's cached path facts and bounds stay
// valid everywhere but on the resources the two flows cross.
func BenchmarkSolveFabricChurn(b *testing.B) {
	e, all := fabricEngine()
	step := startChurn(e, all)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
