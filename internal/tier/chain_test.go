package tier

import (
	"testing"

	"univistor/internal/bb"
	"univistor/internal/lustre"
	"univistor/internal/meta"
	"univistor/internal/sim"
	"univistor/internal/topology"
)

func tiersOf(bks []Backend) []meta.Tier {
	out := make([]meta.Tier, len(bks))
	for i, b := range bks {
		out[i] = b.Tier()
	}
	return out
}

func equalTiers(a, b []meta.Tier) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The chain sorts backends into spill order and always appends the PFS
// terminal, regardless of configuration order; CacheTiers follows the same
// order.
func TestChainBuildOrderAndTerminal(t *testing.T) {
	// The object tier creates its gateway resources on the cluster's engine.
	env := &Env{Cluster: &topology.Cluster{E: sim.NewEngine()}}
	ch, err := Build([]meta.Tier{meta.TierObject, meta.TierDRAM}, env)
	if err != nil {
		t.Fatal(err)
	}
	want := []meta.Tier{meta.TierDRAM, meta.TierObject, meta.TierPFS}
	if got := tiersOf(ch.Backends()); !equalTiers(got, want) {
		t.Errorf("spill order = %v, want %v", got, want)
	}
	if !equalTiers(ch.CacheTiers(), []meta.Tier{meta.TierDRAM, meta.TierObject}) {
		t.Errorf("CacheTiers = %v, want spill order", ch.CacheTiers())
	}
	if got := tiersOf(ch.Caches()); !equalTiers(got, want[:2]) {
		t.Errorf("Caches = %v, want %v without the terminal", got, want[:2])
	}
	if len(ch.Dropped()) != 0 {
		t.Errorf("Dropped = %v, want none", ch.Dropped())
	}
	// Lookups outside the chain (or the tier range) are nil, not a panic.
	if ch.Backend(meta.TierBB) != nil || ch.Backend(meta.Tier(99)) != nil || ch.Backend(-1) != nil {
		t.Error("Backend() must return nil for absent or out-of-range tiers")
	}
}

// A tier whose factory reports unavailability is dropped and recorded.
func TestChainBuildDropsUnavailableBB(t *testing.T) {
	ch, err := Build([]meta.Tier{meta.TierDRAM, meta.TierBB}, &Env{BB: nil})
	if err != nil {
		t.Fatal(err)
	}
	if d := ch.Dropped(); len(d) != 1 || d[0] != meta.TierBB {
		t.Errorf("Dropped = %v, want [BB]", d)
	}
	if ch.Backend(meta.TierBB) != nil {
		t.Error("dropped tier must have no backend")
	}
	if !equalTiers(ch.CacheTiers(), []meta.Tier{meta.TierDRAM}) {
		t.Errorf("CacheTiers = %v, want [DRAM]", ch.CacheTiers())
	}
}

// An empty cache configuration still yields a working chain: just the
// terminal, and no cache tiers.
func TestChainBuildTerminalOnly(t *testing.T) {
	ch, err := Build(nil, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tiersOf(ch.Backends()); !equalTiers(got, []meta.Tier{meta.TierPFS}) {
		t.Errorf("backends = %v, want [PFS]", got)
	}
	if ct := ch.CacheTiers(); len(ct) != 0 {
		t.Errorf("CacheTiers = %v, want none", ct)
	}
	if c := ch.Caches(); len(c) != 0 {
		t.Errorf("Caches = %v, want none", tiersOf(c))
	}
}

// When a pool cannot grant one chunk, Open grants nothing: the shared
// tiers bind no device, the node-local tiers (which hold no per-process
// state) still return themselves, and the terminal binds its lazy spill
// log.
func TestOpenWithoutOneChunkGrantsNothing(t *testing.T) {
	const chunk = int64(1) << 20
	tc := topology.Cori()
	tc.Nodes, tc.CoresPerNode, tc.SocketsPerNode = 1, 4, 1
	tc.DRAMPerNode, tc.LocalSSDPerNode, tc.LocalSSDBW = 8*chunk, 8*chunk, 1<<30
	tc.BBNodes, tc.BBCapPerNode, tc.BBStripeSize = 2, 8*chunk, chunk
	tc.OSTs = 2
	c := topology.New(sim.NewEngine(), tc)
	bbs, err := bb.New(c)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{Cluster: c, BB: bbs, PFS: lustre.NewFS(c), Cfg: Params{ChunkSize: chunk}}
	ch, err := Build([]meta.Tier{meta.TierDRAM, meta.TierLocalSSD, meta.TierBB, meta.TierObject}, env)
	if err != nil {
		t.Fatal(err)
	}
	// Leave half a chunk free in every pool; the BB's is on its first node.
	for _, pool := range []*topology.Capacity{c.Nodes[0].DRAM, c.Nodes[0].SSD, c.BB[0].Cap,
		ch.Backend(meta.TierObject).(*objStore).pool} {
		pool.Alloc(pool.Free() - chunk/2)
	}
	c.BB[1].Cap.Alloc(c.BB[1].Cap.Free())
	req := OpenReq{FID: 1, Owner: 0, Node: 0, ProcsOnNode: 1, ProcsGlobal: 1}
	for _, bk := range ch.Backends() {
		dev, got := bk.Open(req)
		if got != 0 {
			t.Errorf("%s: Open granted %d bytes, want 0", bk.Tier(), got)
		}
		switch bk.Tier() {
		case meta.TierBB, meta.TierObject:
			if dev != nil {
				t.Errorf("%s: Open bound a device without capacity", bk.Tier())
			}
		case meta.TierDRAM, meta.TierLocalSSD:
			if dev != bk.(Device) {
				t.Errorf("%s: Open returned %v, want the backend itself", bk.Tier(), dev)
			}
		case meta.TierPFS:
			if dev == nil {
				t.Error("PFS: Open bound no spill log")
			}
		}
	}
}

// Only the cache tiers of the factories table build, each once; an
// out-of-range tier, the PFS terminal and a repeated tier are rejected.
func TestChainBuildUnregisteredTier(t *testing.T) {
	for _, bad := range []meta.Tier{meta.Tier(9), -1, meta.TierPFS} {
		if _, err := Build([]meta.Tier{bad}, &Env{}); err == nil {
			t.Errorf("Build accepted cache tier %s", bad)
		}
	}
	if _, err := Build([]meta.Tier{meta.TierDRAM, meta.TierDRAM}, &Env{}); err == nil {
		t.Error("Build accepted a repeated cache tier")
	}
}

// Every backend states its visibility: node-local tiers die with their
// node, shared tiers survive it.
func TestBackendVisibility(t *testing.T) {
	for _, tc := range []struct {
		b      Backend
		shared bool
	}{
		{&dramBackend{}, false},
		{&ssdBackend{}, false},
		{&bbBackend{}, true},
		{&objStore{}, true},
		{&pfsBackend{}, true},
	} {
		if tc.b.Shared() != tc.shared {
			t.Errorf("%s: shared = %v, want %v", tc.b.Tier(), tc.b.Shared(), tc.shared)
		}
	}
}

// A warm DRAM write builds its path in the backend's scratch slice and
// allocates nothing.
func TestDRAMWriteDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	e := sim.NewEngine()
	e.SetDifferentialCheck(false) // the oracle's global re-solve allocates
	op := WriteOp{
		Size:          1 << 20,
		ClientMemPort: e.NewResource("client", 1<<30),
		ServerMemPath: []*sim.Resource{e.NewResource("server", 1<<30), e.NewResource("numa", 1<<30)},
	}
	b := &dramBackend{}
	allocs := -1.0
	e.Go("writer", func(p *sim.Proc) {
		write := func() {
			if err := b.Write(p, op); err != nil {
				t.Error(err)
			}
		}
		write()
		allocs = testing.AllocsPerRun(50, write)
	})
	e.Run()
	if allocs != 0 {
		t.Errorf("warm DRAM write allocates %.1f objects, want 0", allocs)
	}
}

// nopFile is a logFile that moves nothing.
type nopFile struct{}

func (nopFile) Write(*sim.Proc, int, int64, int64, ...*sim.Resource) error { return nil }
func (nopFile) Read(*sim.Proc, int, int64, int64, ...*sim.Resource)        {}

// A write through the shared-device adapter passes the server's memory
// port without allocating a slice for it.
func TestFileDeviceWriteDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	e := sim.NewEngine()
	op := WriteOp{Size: 1 << 20, ServerMemPath: []*sim.Resource{e.NewResource("server", 1<<30), e.NewResource("numa", 1<<30)}}
	var dev Device = fileDevice{nopFile{}}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := dev.Write(nil, op); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("fileDevice write allocates %.1f objects, want 0", allocs)
	}
}

// A warm location-aware read of a burst-buffer log passes the reader's
// memory port without allocating a slice for it.
func TestBBReadDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const chunk = int64(1) << 20
	tc := topology.Cori()
	tc.Nodes, tc.CoresPerNode, tc.SocketsPerNode = 1, 4, 1
	tc.BBNodes, tc.BBCapPerNode, tc.BBStripeSize = 2, 64*chunk, chunk
	tc.OSTs = 2
	e := sim.NewEngine()
	e.SetDifferentialCheck(false) // the oracle's global re-solve allocates
	c := topology.New(e, tc)
	bbs, err := bb.New(c)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{Cluster: c, BB: bbs, PFS: lustre.NewFS(c), Cfg: Params{ChunkSize: chunk}}
	ch, err := Build([]meta.Tier{meta.TierBB}, env)
	if err != nil {
		t.Fatal(err)
	}
	dev, got := ch.Backend(meta.TierBB).Open(OpenReq{FID: 1, Node: 0, ProcsOnNode: 1, ProcsGlobal: 1})
	if got == 0 {
		t.Fatal("BB Open granted nothing")
	}
	port := e.NewResource("reader", 1<<30)
	op := ReadOp{
		Size:          4 * chunk,
		LocationAware: true,
		ReaderMemPort: port,
		ReaderMemPath: []*sim.Resource{port, e.NewResource("numa", 1<<30)},
	}
	allocs := -1.0
	e.Go("reader", func(p *sim.Proc) {
		read := func() {
			if _, err := dev.Read(p, op); err != nil {
				t.Error(err)
			}
		}
		read()
		allocs = testing.AllocsPerRun(50, read)
	})
	e.Run()
	if allocs != 0 {
		t.Errorf("warm location-aware BB read allocates %.1f objects, want 0", allocs)
	}
}
