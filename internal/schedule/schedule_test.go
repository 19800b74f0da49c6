package schedule

import (
	"testing"

	"univistor/internal/sim"
	"univistor/internal/topology"
)

func smallCluster(t *testing.T) *topology.Cluster {
	t.Helper()
	cfg := topology.Cori()
	cfg.Nodes = 2
	cfg.CoresPerNode = 6
	cfg.SocketsPerNode = 2
	cfg.BBNodes = 1
	cfg.OSTs = 4
	return topology.New(sim.NewEngine(), cfg)
}

func TestCFSStacksCoLocatedPrograms(t *testing.T) {
	c := smallCluster(t)
	s := New(c, CFS)
	// Two programs, two procs each, on a 6-core node: CFS places both
	// programs from core 0 up, so cores 0 and 1 each host two processes.
	for r := 0; r < 2; r++ {
		s.Place(0, "app1", r)
	}
	for r := 0; r < 2; r++ {
		s.Place(0, "app2", r)
	}
	if got := s.MaxStack(0); got != 2 {
		t.Errorf("CFS max stack = %d, want 2 (programs stacked)", got)
	}
	// And both programs sit entirely on socket 0 (cores 0-2).
	if spread := s.SocketSpread(0, "app1"); spread[1] != 0 {
		t.Errorf("CFS put app1 procs on socket 1: %v", spread)
	}
}

func TestIASpreadsAcrossSocketsWithoutStacking(t *testing.T) {
	c := smallCluster(t)
	s := New(c, InterferenceAware)
	for r := 0; r < 2; r++ {
		s.Place(0, "app1", r)
	}
	for r := 0; r < 2; r++ {
		s.Place(0, "app2", r)
	}
	for r := 0; r < 2; r++ {
		s.Place(0, "server", r)
	}
	if got := s.MaxStack(0); got != 1 {
		t.Errorf("IA max stack = %d, want 1 (6 procs on 6 cores)", got)
	}
	for _, prog := range []string{"app1", "app2", "server"} {
		spread := s.SocketSpread(0, prog)
		if spread[0] != 1 || spread[1] != 1 {
			t.Errorf("IA socket spread for %s = %v, want [1 1]", prog, spread)
		}
	}
}

func TestIAOversubscriptionStacksOnOwnProgram(t *testing.T) {
	c := smallCluster(t)
	s := New(c, InterferenceAware)
	var handles []*ProcHandle
	for r := 0; r < 4; r++ {
		handles = append(handles, s.Place(0, "app1", r))
	}
	for r := 0; r < 2; r++ {
		s.Place(0, "server", r)
	}
	// Node is now full (6 procs, 6 cores). Two more app1 procs oversubscribe.
	extra1 := s.Place(0, "app1", 4)
	extra2 := s.Place(0, "app1", 5)
	ownCores := map[int]bool{}
	for _, h := range handles {
		ownCores[h.Core()] = true
	}
	if !ownCores[extra1.Core()] || !ownCores[extra2.Core()] {
		t.Errorf("oversubscribed procs landed on cores %d, %d, not on app1's cores %v",
			extra1.Core(), extra2.Core(), ownCores)
	}
	if got := s.MaxStack(0); got != 2 {
		t.Errorf("max stack = %d, want 2", got)
	}
}

func TestMemPortDegradesWithStacking(t *testing.T) {
	c := smallCluster(t)
	peak := c.Cfg.CorePeakBW
	s := New(c, CFS)
	h1 := s.Place(0, "app1", 0)
	if h1.MemPort.Capacity != peak {
		t.Fatalf("solo proc capacity = %v, want %v", h1.MemPort.Capacity, peak)
	}
	h2 := s.Place(0, "app2", 0) // CFS stacks it on core 0
	if h2.Core() != h1.Core() {
		t.Fatalf("expected stacking, got cores %d and %d", h1.Core(), h2.Core())
	}
	want := peak / 2 * c.Cfg.CtxSwitchEff
	if h1.MemPort.Capacity != want || h2.MemPort.Capacity != want {
		t.Errorf("stacked capacities = %v, %v, want %v", h1.MemPort.Capacity, h2.MemPort.Capacity, want)
	}
	// Marking one idle restores the other to full speed.
	h2.SetRunnable(false)
	if h1.MemPort.Capacity != peak {
		t.Errorf("capacity with idle core-mate = %v, want %v", h1.MemPort.Capacity, peak)
	}
}

func TestFlushMigrationMovesClientsOffServerCores(t *testing.T) {
	c := smallCluster(t)
	s := New(c, InterferenceAware)
	// Fill the node: 4 app procs + 2 servers on 6 cores.
	for r := 0; r < 4; r++ {
		s.Place(0, "app1", r)
	}
	sv0 := s.Place(0, "server", 0)
	sv1 := s.Place(0, "server", 1)
	// Oversubscribe: 2 extra clients stack on app1 cores. Then move them
	// onto the (idle) server cores as the state-aware rule would allow.
	e1 := s.Place(0, "app1", 4)
	e2 := s.Place(0, "app1", 5)
	_ = e1
	_ = e2
	serverCores := map[int]bool{sv0.Core(): true, sv1.Core(): true}
	s.BeginFlush(0, "server")
	for _, h := range s.NodeProcs(0) {
		if h.Program != "server" && serverCores[h.Core()] {
			t.Errorf("client %s.%d still on server core %d during flush", h.Program, h.Rank, h.Core())
		}
	}
	s.EndFlush(0, "server")
	// After the flush everything is back on its home core.
	if e1.Core() != e1.homeCore.Index || e2.Core() != e2.homeCore.Index {
		t.Errorf("procs not restored to home cores after flush")
	}
}

func TestCFSFlushIsNoop(t *testing.T) {
	c := smallCluster(t)
	s := New(c, CFS)
	s.Place(0, "app1", 0)
	sv := s.Place(0, "server", 0)
	if sv.Core() != 0 {
		t.Fatalf("server core = %d, want 0 under CFS", sv.Core())
	}
	s.BeginFlush(0, "server")
	// The app proc stays stacked with the server: CFS does not migrate.
	procs := s.NodeProcs(0)
	if procs[0].Core() != sv.Core() {
		t.Errorf("CFS migrated a process during flush")
	}
	s.EndFlush(0, "server")
}

func TestIARemainderGoesToLessLoadedSocket(t *testing.T) {
	c := smallCluster(t)
	s := New(c, InterferenceAware)
	// Three procs of one program on a 2-socket node: 2 on one socket, 1 on
	// the other — never 3 on one socket.
	for r := 0; r < 3; r++ {
		s.Place(0, "app1", r)
	}
	spread := s.SocketSpread(0, "app1")
	if spread[0]+spread[1] != 3 || spread[0] == 3 || spread[1] == 3 {
		t.Errorf("socket spread = %v, want a 2/1 split", spread)
	}
}

func TestPlacementIndependentAcrossNodes(t *testing.T) {
	c := smallCluster(t)
	s := New(c, InterferenceAware)
	h0 := s.Place(0, "app1", 0)
	h1 := s.Place(1, "app1", 1)
	if h0.Core() != h1.Core() {
		t.Errorf("first placement differs across nodes: %d vs %d", h0.Core(), h1.Core())
	}
	if s.MaxStack(1) != 1 {
		t.Errorf("node 1 stack = %d, want 1", s.MaxStack(1))
	}
}

func TestIAOversubscriptionBorrowsIdleServerCores(t *testing.T) {
	c := smallCluster(t)
	s := New(c, InterferenceAware)
	// Fill the 6-core node: 4 app procs + 2 servers; servers go idle.
	for r := 0; r < 4; r++ {
		s.Place(0, "app1", r)
	}
	sv0 := s.Place(0, "server", 0)
	sv1 := s.Place(0, "server", 1)
	sv0.SetRunnable(false)
	sv1.SetRunnable(false)
	// Oversubscribed clients borrow the quiescent server cores (Fig. 4c).
	e1 := s.Place(0, "app1", 4)
	e2 := s.Place(0, "app1", 5)
	serverCores := map[int]bool{sv0.Core(): true, sv1.Core(): true}
	if !serverCores[e1.Core()] || !serverCores[e2.Core()] {
		t.Errorf("extras landed on cores %d, %d; want the idle server cores %v",
			e1.Core(), e2.Core(), serverCores)
	}
	// The borrowers run at full speed: the only runnable proc per core.
	if e1.MemPort.Capacity != c.Cfg.CorePeakBW {
		t.Errorf("borrower capacity = %v, want full %v", e1.MemPort.Capacity, c.Cfg.CorePeakBW)
	}
	// When the servers flush, the borrowers are migrated off (Fig. 4d).
	s.BeginFlush(0, "server")
	if serverCores[e1.Core()] || serverCores[e2.Core()] {
		t.Errorf("borrowers still on server cores during flush")
	}
	s.EndFlush(0, "server")
	if !serverCores[e1.Core()] || !serverCores[e2.Core()] {
		t.Errorf("borrowers not restored after flush")
	}
}

// leastLoaded returns the node-local index of the first core of the node
// with the fewest pinned processes, skipping the excluded indices.
func leastLoaded(n *topology.Node, exclude map[int]bool) int {
	best := -1
	for _, c := range n.Cores() {
		if !exclude[c.Index] && (best < 0 || c.Pinned < n.Cores()[best].Pinned) {
			best = c.Index
		}
	}
	return best
}

func TestIANewProgramOnFullBusyNodeStacksOnLeastLoadedCore(t *testing.T) {
	c := smallCluster(t)
	s := New(c, InterferenceAware)
	// Fill the 6-core node with runnable app1 procs, then stack two more:
	// no core has only idle occupants, so nothing can be borrowed.
	for r := 0; r < 8; r++ {
		s.Place(0, "app1", r)
	}
	if got := s.MaxStack(0); got != 2 {
		t.Fatalf("max stack = %d, want 2", got)
	}
	want := leastLoaded(c.Nodes[0], nil)
	if got := c.Nodes[0].Cores()[want].Pinned; got != 1 {
		t.Fatalf("least-loaded core %d hosts %d procs, want 1", want, got)
	}
	// app2 has no core yet: it stacks on the node's least-loaded core.
	if h := s.Place(0, "app2", 0); h.Core() != want {
		t.Errorf("new program placed on core %d, want least-loaded core %d", h.Core(), want)
	}
	if got := s.MaxStack(0); got != 2 {
		t.Errorf("max stack = %d after placing app2, want 2", got)
	}
}

func TestFlushMigrationFallsBackToLeastLoadedNonServerCore(t *testing.T) {
	c := smallCluster(t)
	s := New(c, InterferenceAware)
	for r := 0; r < 4; r++ {
		s.Place(0, "app1", r)
	}
	sv0 := s.Place(0, "server", 0)
	sv1 := s.Place(0, "server", 1)
	// The servers are busy, so the fifth app1 proc stacks on an app1 core.
	s.Place(0, "app1", 4)
	sv0.SetRunnable(false)
	sv1.SetRunnable(false)
	// app2 borrows an idle server core: its program owns no other core.
	h := s.Place(0, "app2", 0)
	serverCores := map[int]bool{sv0.Core(): true, sv1.Core(): true}
	if !serverCores[h.Core()] {
		t.Fatalf("app2 placed on core %d, want an idle server core %v", h.Core(), serverCores)
	}
	home := h.Core()
	want := leastLoaded(c.Nodes[0], serverCores)
	s.BeginFlush(0, "server")
	if h.Core() != want {
		t.Errorf("app2 migrated to core %d, want least-loaded non-server core %d", h.Core(), want)
	}
	if got := c.Nodes[0].Cores()[want].Pinned; got != 2 {
		t.Errorf("target core hosts %d procs during the flush, want 2", got)
	}
	s.EndFlush(0, "server")
	if h.Core() != home {
		t.Errorf("app2 on core %d after the flush, want home core %d", h.Core(), home)
	}
}
