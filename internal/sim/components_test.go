package sim

import (
	"slices"
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
	s := &utilSampler{}
	e.SetTracer(s)
	a := e.NewResource("a", 120)
	b := e.NewResource("b", 120)
	var t1, t2, t3 Time
	bridgesDone := 0
	// Water-fill at t=0: a carries 6 flows (fair share 20, the
	// bottleneck), so f1, f2, and the four bridges run at 20; b's
	// leftover 120-4*20 = 40 goes to f3.
	e.Go("f1", func(p *Proc) { p.Transfer(10000, a); t1 = p.Now() })
	e.Go("f2", func(p *Proc) { p.Transfer(10000, a); t2 = p.Now() })
	e.Go("f3", func(p *Proc) { p.Transfer(12200, b); t3 = p.Now() })
	for i := 0; i < 4; i++ {
		e.Go("bridge", func(p *Proc) { p.Transfer(100, a, b); bridgesDone++ })
	}
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
		st := e.AllocStats()
		if st.Splits != 0 {
			t.Errorf("at t=50: AllocStats.Splits = %d, want 0", st.Splits)
		}
		if st.Merges == 0 {
			t.Error("at t=50: AllocStats.Merges = 0, want bridge-driven merges")
		}
		// The joint solve re-fills each side's own capacity: f1 and f2
		// share a at 60 each, f3 gets all of b.
		if s.last[a] != 120 || s.last[b] != 120 {
			t.Errorf("at t=50: sampled rate a=%v b=%v, want 120/120", s.last[a], s.last[b])
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
	x := e.NewResource("x", 100)
	y := e.NewResource("y", 100)
	z := e.NewResource("z", 100)
	for _, path := range [][]*Resource{{x}, {y}, {y}, {z, y, x}} {
		e.Go("w", func(p *Proc) { p.Transfer(100, path...) })
	}
	e.Run()
	var got []string
	for _, r := range s.order {
		got = append(got, r.Name)
	}
	if want := "x y z"; strings.Join(got, " ") != want {
		t.Errorf("first-sample order %v, want %s", got, want)
	}
}

// startAll starts pieces from one process, as one TransferAll, and runs
// the engine through the start instant, so the start batch is solved and
// all scratch has grown.
func startAll(e *Engine, pieces []Flow) {
	e.Go("flows", func(p *Proc) { p.TransferAll(pieces) })
	runTo(e, e.Now())
}

// steadyEngine builds an engine with 4 components of 128 long-lived flows
// each — the steady-state shape of the batch hot path.
func steadyEngine() (*Engine, []*Resource) {
	e := NewEngine()
	e.SetDifferentialCheck(false) // the oracle allocates by design
	var all []*Resource
	var pieces []Flow
	for c := 0; c < 4; c++ {
		hub := e.NewResource("hub", 1000)
		spoke := e.NewResource("spoke", 800)
		all = append(all, hub, spoke)
		for i := 0; i < 128; i++ {
			path := []*Resource{hub}
			if i%2 == 0 {
				path = append(path, spoke)
			}
			pieces = append(pieces, Flow{Size: 1e12, Path: path})
		}
	}
	startAll(e, pieces)
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
	fabric := e.NewResource("fabric", 10<<40)
	all := []*Resource{fabric}
	nic := make([]*Resource, nodes)
	pfs := make([]*Resource, nodes)
	mem := make([][2]*Resource, nodes)
	for n := range nic {
		nic[n] = e.NewResource("nic", 8*GB)
		pfs[n] = e.NewResource("pfsport", 2.5*GB)
		mem[n] = [2]*Resource{e.NewResource("mem", 60*GB), e.NewResource("mem", 60*GB)}
		all = append(all, nic[n], pfs[n], mem[n][0], mem[n][1])
	}
	ost := make([]*Resource, osts)
	for o := range ost {
		ost[o] = e.NewResource("ost", 1.1*GB)
		all = append(all, ost[o])
	}
	var pieces []Flow
	for n := 0; n < nodes; n++ {
		for i := 0; i < ranksPerNode; i++ {
			port := e.NewResource("memport", 7*GB)
			all = append(all, port)
			sock := mem[n][i%2]
			path := []*Resource{port, sock}
			switch i % 3 {
			case 0:
				path = append(path, nic[n], fabric, nic[(n+1)%nodes])
			case 1:
				path = []*Resource{port, pfs[n], nic[n], fabric, ost[(n*ranksPerNode+i)%osts]}
			}
			pieces = append(pieces, Flow{Size: 1e15, Path: path})
		}
	}
	startAll(e, pieces)
	return e, all
}

// checkpointEngine builds one ckpt-shaped component: 32 nodes of 8 ranks,
// each rank running one long-lived PFS write through its node's
// PFS-client port and NIC, a single 10 TB/s fabric and one of 248 OSTs
// (256 flows). The ports tie at one share, below the NICs' and the OSTs';
// so the ports pop first, in id order, and each one's freezes drain its
// NIC and most of its OSTs at their first touch. The eight OSTs that two
// writes share stay, re-keyed. write(n, o) is the path of a write from
// node n to OST o.
func checkpointEngine() (e *Engine, write func(n, o int) []*Resource) {
	const (
		GB           = 1 << 30
		nodes        = 32
		ranksPerNode = 8
		osts         = 248
	)
	e = NewEngine()
	e.SetDifferentialCheck(false) // the oracle allocates by design
	fabric := e.NewResource("fabric", 10<<40)
	pfs := make([]*Resource, nodes)
	nic := make([]*Resource, nodes)
	for n := range pfs {
		pfs[n] = e.NewResource("pfsport", 2.5*GB)
		nic[n] = e.NewResource("nic", 8*GB)
	}
	ost := make([]*Resource, osts)
	for o := range ost {
		ost[o] = e.NewResource("ost", 1.1*GB)
	}
	write = func(n, o int) []*Resource { return []*Resource{pfs[n], nic[n], fabric, ost[o]} }
	var pieces []Flow
	for n := 0; n < nodes; n++ {
		for i := 0; i < ranksPerNode; i++ {
			pieces = append(pieces, Flow{Size: 1e15, Path: write(n, (n*ranksPerNode+i)%osts)})
		}
	}
	startAll(e, pieces)
	return e, write
}

// workflowEngine builds one component in the workflow regime, where most
// crossings are wider than the bottleneck: 64 nodes of 16 ranks, each rank
// running one long-lived remote read from the next node's memory through
// that node's rank memory port (20 GB/s), socket port (160 GB/s) and NIC
// (8 GB/s), a single 10 TB/s fabric, and its own node's NIC, socket port
// and rank memory port (1024 flows). Only the NICs bind: a NIC bounds
// every crossing of the other resources, and a rank port carries 2
// crossings (16 GB/s of bounds), a socket port 16 (128 GB/s). So 5 of
// every read's 7 crossings are outside the water-fill. read(n, i) is the path
// of rank i of node n; all lists the resources.
func workflowEngine() (e *Engine, read func(n, i int) []*Resource, all []*Resource) {
	const (
		GB           = 1 << 30
		nodes        = 64
		ranksPerNode = 16
	)
	e = NewEngine()
	e.SetDifferentialCheck(false) // the oracle allocates by design
	fabric := e.NewResource("fabric", 10<<40)
	all = []*Resource{fabric}
	nic := make([]*Resource, nodes)
	sock := make([][2]*Resource, nodes)
	port := make([][]*Resource, nodes)
	for n := range nic {
		nic[n] = e.NewResource("nic", 8*GB)
		sock[n] = [2]*Resource{e.NewResource("sock", 160*GB), e.NewResource("sock", 160*GB)}
		all = append(all, nic[n], sock[n][0], sock[n][1])
		for range ranksPerNode {
			port[n] = append(port[n], e.NewResource("memport", 20*GB))
		}
		all = append(all, port[n]...)
	}
	read = func(n, i int) []*Resource {
		m := (n + 1) % nodes
		return []*Resource{port[m][i], sock[m][i%2], nic[m], fabric, nic[n], sock[n][i%2], port[n][i]}
	}
	var pieces []Flow
	for n := 0; n < nodes; n++ {
		for i := 0; i < ranksPerNode; i++ {
			pieces = append(pieces, Flow{Size: 1e15, Path: read(n, i)})
		}
	}
	startAll(e, pieces)
	return e, read, all
}

// startChurn starts a process that moves short flows on a component built
// by fabricEngine or checkpointEngine back to back, each on the following
// path of paths (cyclically), and returns a step that runs the engine
// through the next completion instant: one flow finishes, the process
// starts the next, and the component is re-solved once, with no capacity
// change. That is the regime the workloads run.
func startChurn(e *Engine, paths ...[]*Resource) (step func()) {
	e.Go("churn", func(p *Proc) {
		for k := 0; ; k++ {
			p.Transfer(64<<20, paths[k%len(paths)]...)
		}
	})
	runTo(e, e.Now()) // start the first flow and fold its batch
	return func() { runTo(e, e.events[0].t) }
}

// remoteRead is a remote-read path on fabricEngine's resources all, through
// the given resources of its own and then a socket port, a NIC, the fabric
// and the next node's NIC.
func remoteRead(all []*Resource, own ...*Resource) []*Resource {
	return slices.Concat(own, []*Resource{all[3], all[1], all[0], all[5]})
}

// The steady-state batch hot path must not allocate: once the engine's
// scratch buffers have grown, a full dirty-batch solve runs
// allocation-free, both for 512 flows over four small components and for
// one fabric-coupled component of 1536 flows, and so does the churn step
// in which one flow finishes and one starts. So does a churn step whose
// starting flow bridges two resources no flow crossed into the component
// while the finished flow's own two drain: one solve then both claims and
// closes resources, and sorts the claimed ones. So do a component's birth
// and retirement, and a merge of two components whose flows interleave:
// components, their order arrays and merge buffers are pooled. So does a
// churn step on the checkpoint-shaped component, and a pair of capacity
// changes that admits a resource to a component's water-fill and leaves
// it out again. Each step must also take the path it stands for: the
// churn steps leave unchanged resources unvisited in set-up and insert
// moved ones, a retirement closes ordered resources, a merge absorbs an
// order, and the admission flips set and clear mask bits. This
// is the regression bound for the pooled-scratch refactor; the previous
// implementation allocated hundreds of objects per batch (scratch maps,
// share-heap nodes, sample closures).
func TestBatchSolveDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, build := range []func() (*Engine, []*Resource){steadyEngine, fabricEngine} {
		e, all := build()
		allocs := testing.AllocsPerRun(50, rescaleAll(e, all))
		if allocs > 2 {
			t.Errorf("batch solve of %d flows in %d components allocates %.1f objects/op, want ≤2",
				len(e.flows.active), len(e.flows.comps), allocs)
		}
	}
	e, all := fabricEngine()
	step := startChurn(e, remoteRead(all, e.NewResource("memport", 7<<30)))
	solves := e.AllocStats().ComponentsSolved
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("churn step allocates %.1f objects/op, want 0", allocs)
	}
	if n := e.AllocStats().ComponentsSolved - solves; n != 51 {
		t.Errorf("51 churn steps solved %d components, want one each", n)
	}

	// Admission flips: the fabric narrowed into a bottleneck is admitted,
	// which sets its 1024 crossings' mask bits, and restored it is left
	// out again, which clears them.
	e, _, all = workflowEngine()
	fabric, wide := all[0], all[0].Capacity
	step = func() {
		fabric.Capacity = 1 << 30
		e.RecomputeResources(fabric)
		fabric.Capacity = wide
		e.RecomputeResources(fabric)
	}
	before := e.flows.solve.counts
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("admission flip step allocates %.1f objects/op, want 0", allocs)
	}
	if c := e.flows.solve.counts; c.maskOn-before.maskOn != 51*1024 || c.maskOff-before.maskOff != 51*1024 {
		t.Errorf("51 admission flip steps set %d and cleared %d mask bits, want %d each",
			c.maskOn-before.maskOn, c.maskOff-before.maskOff, 51*1024)
	}

	e, write := checkpointEngine()
	step = startChurn(e, write(0, 100), write(1, 200))
	before = e.flows.solve.counts
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("checkpoint churn step allocates %.1f objects/op, want 0", allocs)
	}
	if c := e.flows.solve.counts; c.skipped == before.skipped || c.moved == before.moved {
		t.Errorf("checkpoint churn steps skipped %d resources in set-up and moved %d order entries, want both > 0",
			c.skipped-before.skipped, c.moved-before.moved)
	}

	e, all = fabricEngine()
	own := [2][]*Resource{
		{e.NewResource("memport", 7<<30), e.NewResource("buf", 9<<30)},
		{e.NewResource("memport", 7<<30), e.NewResource("buf", 9<<30)},
	}
	step = startChurn(e, remoteRead(all, own[0]...), remoteRead(all, own[1]...))
	solves = e.AllocStats().ComponentsSolved
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("claiming churn step allocates %.1f objects/op, want 0", allocs)
	}
	if n := e.AllocStats().ComponentsSolved - solves; n != 51 {
		t.Errorf("51 claiming churn steps solved %d components, want one each", n)
	}
	// After 51 steps the chain's flow runs on own[1]; own[0] was closed.
	for i, pair := range own {
		for _, r := range pair {
			if owned := r.comp != nil; owned != (i == 1) {
				t.Errorf("%s of path %d owned=%v after 51 steps, want %v", r.Name, i, owned, i == 1)
			}
		}
	}

	// Component lifecycle: a chain alternating between two resources no
	// other flow crosses gives each starting flow a component of its own,
	// and the finished flow's drained component retires in the same batch.
	// Both come from and return to the component pool.
	e, _ = steadyEngine()
	step = startChurn(e, []*Resource{e.NewResource("solo", 1<<30)}, []*Resource{e.NewResource("solo", 1<<30)})
	born, closed := e.flows.compSeq, e.flows.solve.counts.closed
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("component birth and retirement allocates %.1f objects/op, want 0", allocs)
	}
	if e.flows.solve.counts.closed == closed {
		t.Error("the lifecycle steps closed no ordered resource")
	}
	if n := e.flows.compSeq - born; n != 51 {
		t.Errorf("51 lifecycle steps created %d components, want one each", n)
	}
	if n := len(e.flows.comps); n != 5 {
		t.Errorf("%d live components after the lifecycle steps, want 5", n)
	}

	// Merge: two components whose flows interleave in seq order are
	// bridged by a fifth flow, so the merge writes the general path into
	// the spare buffer; the merged component then drains and retires
	// before the process starts the next round.
	e = NewEngine()
	e.SetDifferentialCheck(false)
	x, y := e.NewResource("x", 1<<30), e.NewResource("y", 1<<30)
	onX, onY, bridge := []*Resource{x}, []*Resource{y}, []*Resource{x, y}
	round := []Flow{{64 << 20, onX}, {64 << 20, onY}, {64 << 20, onX}, {64 << 20, onY}, {64 << 20, bridge}}
	rounds := 0
	e.Go("merge", func(p *Proc) {
		for ; ; rounds++ {
			p.TransferAll(round)
		}
	})
	step = func() {
		for target := rounds + 1; rounds < target; {
			e.step()
		}
	}
	for range 4 {
		step() // grow the pooled arrays and the spare to the merge's size
	}
	merges := e.AllocStats().Merges
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("interleaved merge step allocates %.1f objects/op, want 0", allocs)
	}
	if n := e.AllocStats().Merges - merges; n != 51 {
		t.Errorf("51 merge steps merged %d times, want once each", n)
	}

	// Absorbing merge: each round starts a flow on x and one on y and z,
	// whose components are solved apart (orders of one and two entries),
	// and a second process bridges x and y later in the round. The merged
	// component keeps the longer order and hands the other's entry back
	// for re-insertion; it drains and retires before the next round.
	e = NewEngine()
	e.SetDifferentialCheck(false)
	x, y = e.NewResource("x", 1<<30), e.NewResource("y", 1<<30)
	z := e.NewResource("z", 1<<30)
	pair := []Flow{{64 << 20, []*Resource{x}}, {64 << 20, []*Resource{y, z}}}
	bar := NewBarrier(2)
	rounds = 0
	e.Go("pair", func(p *Proc) {
		for ; ; rounds++ {
			bar.Wait(p)
			p.TransferAll(pair)
		}
	})
	e.Go("bridge", func(p *Proc) {
		for {
			bar.Wait(p)
			p.Sleep(1.0 / 64)
			p.Transfer(1<<20, x, y)
		}
	})
	for range 4 {
		step()
	}
	merges, absorbed := e.AllocStats().Merges, e.flows.solve.counts.absorbed
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("absorbing merge step allocates %.1f objects/op, want 0", allocs)
	}
	if n := e.AllocStats().Merges - merges; n != 51 {
		t.Errorf("51 absorbing merge steps merged %d times, want once each", n)
	}
	if n := e.flows.solve.counts.absorbed - absorbed; n != 51 {
		t.Errorf("51 absorbing merges handed back %d order entries, want the shorter order's one each", n)
	}
}

// mergeBySeq returns one seq-ordered list holding both inputs, and a spare
// buffer that shares no array with it: writing the spare's whole capacity
// must leave the merged list intact.
func TestMergeBySeq(t *testing.T) {
	flows := func(seqs ...int64) []*flow {
		out := make([]*flow, len(seqs))
		for i, s := range seqs {
			out[i] = &flow{seq: s}
		}
		return out
	}
	for _, tc := range []struct {
		name string
		a, b []int64
	}{
		{"interleaved", []int64{1, 3, 5, 6}, []int64{2, 4, 7}},
		{"b-before-a", []int64{4, 5, 6}, []int64{1, 2, 3}},
		{"a-before-b", []int64{1, 2}, []int64{3, 4, 5}},
		{"empty-b", []int64{1, 2}, nil},
		{"empty-a", nil, []int64{1, 2}},
		{"both-empty", nil, nil},
	} {
		// The merge clears a's array, so each buffer gets fresh inputs.
		for _, buf := range [][]*flow{nil, make([]*flow, 0, 16)} {
			want := len(tc.a) + len(tc.b)
			merged, spare := mergeBySeq(flows(tc.a...), flows(tc.b...), buf)
			if len(merged) != want {
				t.Fatalf("%s: merged %d flows, want %d", tc.name, len(merged), want)
			}
			if !slices.IsSortedFunc(merged, func(f, g *flow) int { return int(f.seq - g.seq) }) {
				t.Errorf("%s: merged list is not in ascending seq order", tc.name)
			}
			if len(spare) != 0 {
				t.Errorf("%s: spare has length %d, want 0", tc.name, len(spare))
			}
			got := slices.Clone(merged)
			marker := &flow{seq: -1}
			full := spare[:cap(spare)]
			for i := range full {
				full[i] = marker
			}
			if !slices.Equal(merged, got) {
				t.Errorf("%s: the spare buffer aliases the merged list", tc.name)
			}
		}
	}
}

// rescaleAll returns a step that moves every capacity in all and re-solves
// the components that cross them.
func rescaleAll(e *Engine, all []*Resource) (step func()) {
	return func() {
		for _, r := range all {
			r.Capacity *= 0.999
		}
		e.RecomputeResources(all...)
	}
}

// benchSteps times step after one untimed call, which grows the solver's
// scratch, so that even a single timed iteration (make bench-smoke)
// reports the steady state's allocs/op.
func benchSteps(b *testing.B, step func()) {
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkBatchSolve measures the batch hot path — a full capacity-change
// re-solve of 512 active flows across 4 components — with -benchmem
// reporting allocs/op (expected 0 in steady state).
func BenchmarkBatchSolve(b *testing.B) { benchSteps(b, rescaleAll(steadyEngine())) }

// BenchmarkSolveFabricComponent measures a full re-solve of one
// workflow-shaped component (fabricEngine: 1536 flows over ~1900
// resources, all coupled through the fabric), the regime where the share
// heap dominates the solve.
func BenchmarkSolveFabricComponent(b *testing.B) { benchSteps(b, rescaleAll(fabricEngine())) }

// BenchmarkSolveFabricChurn measures the churn step on fabricEngine's
// component: one flow finishes and one starts, then one re-solve with no
// capacity change, so the solver's cached path facts and bounds stay
// valid everywhere but on the resources the two flows cross.
func BenchmarkSolveFabricChurn(b *testing.B) {
	e, all := fabricEngine()
	benchSteps(b, startChurn(e, remoteRead(all, e.NewResource("memport", 7<<30))))
}

// BenchmarkSolveWorkflowChurn measures the churn step on workflowEngine's
// component, the workflow regime: most crossings lie outside the
// water-fill, so a freeze charges only the NICs its flow crosses.
func BenchmarkSolveWorkflowChurn(b *testing.B) {
	e, read, _ := workflowEngine()
	benchSteps(b, startChurn(e, read(0, 0), read(5, 3)))
}

// BenchmarkSolveCheckpointChurn measures the churn step on
// checkpointEngine's component, the small-write checkpoint regime: tied
// shares, most pops taking an order entry no freeze has touched, and most
// members drained at their first touch.
func BenchmarkSolveCheckpointChurn(b *testing.B) {
	e, write := checkpointEngine()
	benchSteps(b, startChurn(e, write(0, 100), write(1, 200)))
}
