package univistor

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"univistor/internal/core"
	"univistor/internal/meta"
	"univistor/internal/topology"
)

func smallOpts() Options {
	o := Defaults()
	o.Machine.Nodes = 2
	o.Machine.CoresPerNode = 8
	o.Machine.DRAMPerNode = 64 << 20
	o.Machine.BBNodes = 2
	o.Machine.BBCapPerNode = 256 << 20
	o.Machine.OSTs = 8
	o.Service.ChunkSize = 1 << 20
	o.Service.MetaRangeSize = 16 << 20
	return o
}

func TestFacadeWriteReadRoundTrip(t *testing.T) {
	c, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("f"), 1<<20)
	var got []byte
	job := c.Launch("app", 2, func(a *App) {
		f, err := a.Create("out.h5")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		off := int64(a.Rank()) << 20
		if err := f.WriteAt(off, 1<<20, payload); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		a.WaitFlush("out.h5")
		rf, err := a.Open("out.h5")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if a.Rank() == 1 {
			got, _ = rf.ReadAt(0, 1<<20)
		}
		rf.Close()
	}, WithRanksPerNode(1))
	end, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Error("virtual time did not advance")
	}
	if !bytes.Equal(got, payload) {
		t.Error("round trip mismatch")
	}
	if size, ok := c.FileSize("out.h5"); !ok || size != 2<<20 {
		t.Errorf("FileSize = %d, %v", size, ok)
	}
	if b, secs, ok := c.FlushStats("out.h5"); !ok || b != 2<<20 || secs <= 0 {
		t.Errorf("FlushStats = %d bytes, %v s, %v", b, secs, ok)
	}
}

func TestFacadeValidation(t *testing.T) {
	// Only the zero value stands for the defaults: a partly set config is
	// validated, not replaced.
	for _, bad := range []func(*topology.Config){
		func(m *topology.Config) { m.CoresPerNode = 7 }, // not divisible by 2 sockets
		func(m *topology.Config) { m.Nodes = 0 },
		// Non-finite and out-of-range machine numbers: each used to pass
		// New, and the zero bandwidths then panicked inside Launch.
		func(m *topology.Config) { m.NICBW = math.NaN() },
		func(m *topology.Config) { m.DRAMBWSocket = math.NaN() },
		func(m *topology.Config) { m.CtxSwitchEff = math.NaN() },
		func(m *topology.Config) { m.OSTBW = math.Inf(1) },
		func(m *topology.Config) { m.NetLatency = math.NaN() },
		func(m *topology.Config) { m.NetLatency = -1 },
		func(m *topology.Config) { m.CorePeakBW = 0 },
		func(m *topology.Config) { m.BBBWPerNode = 0 },
	} {
		o := smallOpts()
		bad(&o.Machine)
		if _, err := New(o); err == nil || !strings.HasPrefix(err.Error(), "topology: ") {
			t.Errorf("invalid machine not rejected with a topology: error (got %v): %+v", err, o.Machine)
		}
	}
	for _, bad := range []func(*core.Config){
		func(c *core.Config) { c.ServersPerNode = 0 },
		func(c *core.Config) { c.ChunkSize = -1 },
		func(c *core.Config) { c.FlushStriping = "stripe-some" },
		func(c *core.Config) { c.CacheTiers = []meta.Tier{meta.TierPFS} },
		func(c *core.Config) { c.CacheTiers = []meta.Tier{meta.Tier(meta.NumTiers)} },
		func(c *core.Config) { c.CacheTiers = []meta.Tier{-1} },
		func(c *core.Config) { c.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierDRAM} },
		func(c *core.Config) { c.TierLogBytes = map[meta.Tier]int64{meta.Tier(meta.NumTiers): 1 << 20} },
		func(c *core.Config) { c.TierLogBytes = map[meta.Tier]int64{meta.TierPFS: 1 << 20} },
		func(c *core.Config) { c.MetaOpTime = math.NaN() },
		func(c *core.Config) { c.MetaOpTime = math.Inf(1) },
		// Negative legacy log sizes: logShare used to ignore them.
		func(c *core.Config) { c.DRAMLogBytes = -1 },
		func(c *core.Config) { c.BBLogBytes = -1 },
		// Both sizes of one tier's logs: one of them was silently ignored.
		func(c *core.Config) {
			c.DRAMLogBytes = 1 << 20
			c.TierLogBytes = map[meta.Tier]int64{meta.TierDRAM: 2 << 20}
		},
		func(c *core.Config) {
			c.BBLogBytes = 1 << 20
			c.TierLogBytes = map[meta.Tier]int64{meta.TierBB: 2 << 20}
		},
		// A promotion threshold below 1 used to fall back to 2.
		func(c *core.Config) { c.ProactivePlacement = true; c.PromoteAfterReads = 0 },
	} {
		o := smallOpts()
		bad(&o.Service)
		if _, err := New(o); err == nil {
			t.Errorf("invalid service config accepted: %+v", o.Service)
		}
	}
}

func TestFacadeDefaultsAreRunnable(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	job := c.Launch("noop", 4, func(a *App) { a.Compute(1); a.Barrier() })
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
}

func TestTwoJobsSharingData(t *testing.T) {
	o := smallOpts()
	o.Service.Workflow = true
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("w"), 1<<20)
	var got []byte
	producer := c.Launch("producer", 1, func(a *App) {
		f, _ := a.Create("shared.h5")
		f.WriteAt(0, 1<<20, payload)
		a.Compute(0.5)
		f.Close()
	}, WithRanksPerNode(1), WithNodes(0))
	consumer := c.Launch("consumer", 1, func(a *App) {
		f, err := a.Open("shared.h5")
		if err != nil {
			t.Errorf("consumer open: %v", err)
			return
		}
		got, _ = f.ReadAt(0, 1<<20)
		f.Close()
	}, WithRanksPerNode(1), WithNodes(1))
	if _, err := c.Run(producer, consumer); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("consumer read mismatch")
	}
}

// Ensure exported tier helpers and machine presets stay consistent.
func TestCoriPresetTiers(t *testing.T) {
	cfg := topology.Cori()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}
