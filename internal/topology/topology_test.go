package topology

import (
	"math"
	"testing"
	"testing/quick"

	"univistor/internal/sim"
)

func TestCoriConfigIsValid(t *testing.T) {
	if err := Cori().Validate(); err != nil {
		t.Fatalf("Cori preset invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }},
		{"zero cores", func(c *Config) { c.CoresPerNode = 0 }},
		{"cores not divisible by sockets", func(c *Config) { c.CoresPerNode = 33 }},
		{"zero OSTs", func(c *Config) { c.OSTs = 0 }},
		{"negative BB nodes", func(c *Config) { c.BBNodes = -1 }},
		{"shared-file eff over 1", func(c *Config) { c.SharedFileEff = 1.5 }},
		{"ctx-switch eff zero", func(c *Config) { c.CtxSwitchEff = 0 }},
		{"zero nic bw", func(c *Config) { c.NICBW = 0 }},
		{"NaN shared-file eff", func(c *Config) { c.SharedFileEff = math.NaN() }},
		{"infinite PFS latency", func(c *Config) { c.PFSLatency = math.Inf(1) }},
		{"negative BB latency", func(c *Config) { c.BBLatency = -1 }},
		{"local SSD without bandwidth", func(c *Config) { c.LocalSSDPerNode = 1 << 30 }},
		{"negative OST capacity", func(c *Config) { c.OSTCapacity = -1 }},
	}
	for _, tc := range cases {
		cfg := Cori()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
		}
	}
}

func TestNewBuildsDescribedShape(t *testing.T) {
	cfg := Cori()
	cfg.Nodes = 4
	cfg.BBNodes = 3
	cfg.OSTs = 5
	c := New(sim.NewEngine(), cfg)
	if len(c.Nodes) != 4 || len(c.BB) != 3 || len(c.OSTs) != 5 {
		t.Fatalf("got %d nodes, %d BB, %d OSTs", len(c.Nodes), len(c.BB), len(c.OSTs))
	}
	n := c.Nodes[0]
	if len(n.Sockets) != cfg.SocketsPerNode {
		t.Errorf("sockets = %d, want %d", len(n.Sockets), cfg.SocketsPerNode)
	}
	if got := len(n.Cores()); got != cfg.CoresPerNode {
		t.Errorf("cores = %d, want %d", got, cfg.CoresPerNode)
	}
	// Cores are socket-major with global node-local indices.
	cores := n.Cores()
	for i, core := range cores {
		if core.Index != i {
			t.Errorf("core %d has index %d", i, core.Index)
		}
	}
	if n.DRAM.Total() != cfg.DRAMPerNode {
		t.Errorf("DRAM total = %d, want %d", n.DRAM.Total(), cfg.DRAMPerNode)
	}
}

func TestNetPath(t *testing.T) {
	cfg := Cori()
	cfg.Nodes = 2
	c := New(sim.NewEngine(), cfg)
	if got := c.NetPath(0, 0); got != nil {
		t.Errorf("intra-node path = %v, want nil", got)
	}
	path := c.NetPath(0, 1)
	if len(path) != 3 {
		t.Fatalf("inter-node path has %d hops, want 3 (src NIC, fabric, dst NIC)", len(path))
	}
	if path[0] != c.Nodes[0].NIC || path[1] != c.Fabric || path[2] != c.Nodes[1].NIC {
		t.Errorf("unexpected path composition")
	}
}

func TestCapacityAllocRelease(t *testing.T) {
	c := NewCapacity("pool", 100)
	if !c.Alloc(60) {
		t.Fatal("first alloc failed")
	}
	if c.Alloc(50) {
		t.Fatal("over-allocation succeeded")
	}
	if c.Free() != 40 {
		t.Errorf("free = %d, want 40", c.Free())
	}
	c.Release(60)
	if c.Used() != 0 {
		t.Errorf("used = %d after full release", c.Used())
	}
	if !c.Alloc(100) {
		t.Error("alloc of full pool after release failed")
	}
}

func TestCapacityPanicsOnInvalidOps(t *testing.T) {
	c := NewCapacity("pool", 10)
	assertPanics(t, "negative alloc", func() { c.Alloc(-1) })
	assertPanics(t, "release more than used", func() { c.Release(1) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// Property: any sequence of successful allocs and their releases leaves
// used within [0, total] and never lets a failed alloc change state.
func TestCapacityInvariantProperty(t *testing.T) {
	prop := func(ops []int16) bool {
		c := NewCapacity("p", 1000)
		var outstanding []int64
		for _, op := range ops {
			n := int64(op)
			if n < 0 {
				n = -n
			}
			if len(outstanding) > 0 && op%2 == 0 {
				c.Release(outstanding[0])
				outstanding = outstanding[1:]
				continue
			}
			before := c.Used()
			if c.Alloc(n) {
				outstanding = append(outstanding, n)
			} else if c.Used() != before {
				return false // failed alloc mutated state
			}
			if c.Used() < 0 || c.Used() > c.Total() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
