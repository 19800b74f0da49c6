package mpi

import (
	"testing"

	"univistor/internal/schedule"
	"univistor/internal/sim"
	"univistor/internal/topology"
)

func testWorld(t *testing.T, nodes int) *World {
	t.Helper()
	cfg := topology.Cori()
	cfg.Nodes = nodes
	cfg.BBNodes = 2
	cfg.OSTs = 8
	e := sim.NewEngine()
	return NewWorld(e, topology.New(e, cfg), schedule.InterferenceAware)
}

func TestLaunchPlacesRanksBlockwise(t *testing.T) {
	w := testWorld(t, 4)
	var nodes []int
	c := w.Launch("app", 8, func(r *Rank) {
		nodes = append(nodes, r.Node())
	}, LaunchOpts{RanksPerNode: 4})
	w.E.Run()
	if !c.Done() {
		t.Fatal("job did not finish")
	}
	for rank, node := range nodes {
		_ = rank
		_ = node
	}
	count := map[int]int{}
	for _, r := range c.Ranks() {
		count[r.Node()]++
	}
	if count[0] != 4 || count[1] != 4 {
		t.Errorf("rank distribution = %v, want 4 per node on nodes 0,1", count)
	}
}

func TestLaunchOnExplicitNodes(t *testing.T) {
	w := testWorld(t, 4)
	c := w.Launch("app", 4, func(r *Rank) {}, LaunchOpts{RanksPerNode: 2, Nodes: []int{2, 3}})
	w.E.Run()
	if c.Rank(0).Node() != 2 || c.Rank(3).Node() != 3 {
		t.Errorf("ranks on nodes %d..%d, want 2..3", c.Rank(0).Node(), c.Rank(3).Node())
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := testWorld(t, 2)
	var after []sim.Time
	w.Launch("app", 4, func(r *Rank) {
		r.Compute(float64(r.Rank())) // ranks arrive at 0,1,2,3
		r.Barrier()
		after = append(after, r.Now())
	}, LaunchOpts{RanksPerNode: 2})
	w.E.Run()
	if len(after) != 4 {
		t.Fatalf("%d ranks passed the barrier", len(after))
	}
	for _, at := range after {
		if float64(at) < 3 {
			t.Errorf("rank passed barrier at %v, before last arrival t=3", at)
		}
	}
}

func TestBcastDeliversRootValue(t *testing.T) {
	w := testWorld(t, 2)
	got := make([]any, 4)
	w.Launch("app", 4, func(r *Rank) {
		var v any
		if r.Rank() == 2 {
			v = 42
		}
		got[r.Rank()] = r.Bcast(2, 8, v)
	}, LaunchOpts{RanksPerNode: 2})
	w.E.Run()
	for i, v := range got {
		if v != 42 {
			t.Errorf("rank %d got %v, want 42", i, v)
		}
	}
}

// A rank of another job posts into a server's inbox, as the flush trigger
// does, and the server receives the payload.
func TestCrossCommDeliver(t *testing.T) {
	w := testWorld(t, 2)
	var got Msg
	servers := w.Launch("server", 1, func(r *Rank) {
		got = r.Recv()
	}, LaunchOpts{RanksPerNode: 1})
	w.Launch("client", 1, func(r *Rank) {
		r.Compute(1)
		servers.Rank(0).Deliver(Msg{Tag: "req", Payload: "ping"})
	}, LaunchOpts{RanksPerNode: 1, Nodes: []int{1}})
	w.E.Run()
	if got.Tag != "req" || got.Payload != "ping" {
		t.Errorf("server received %+v, want req/ping", got)
	}
	if !servers.Done() {
		t.Error("server still blocked in Recv")
	}
}

func TestCommWait(t *testing.T) {
	w := testWorld(t, 1)
	app := w.Launch("app", 2, func(r *Rank) { r.Compute(5) }, LaunchOpts{RanksPerNode: 2})
	var waitedUntil sim.Time
	w.E.Go("watcher", func(p *sim.Proc) {
		app.Wait(p)
		waitedUntil = p.Now()
	})
	w.E.Run()
	if waitedUntil != 5 {
		t.Errorf("Wait returned at %v, want 5", waitedUntil)
	}
}
