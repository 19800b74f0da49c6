package bb

import (
	"math"
	"testing"

	"univistor/internal/sim"
	"univistor/internal/topology"
)

const gb = float64(1 << 30)

func testBB(t testing.TB, nodes int) (*sim.Engine, *topology.Cluster, *System) {
	t.Helper()
	cfg := topology.Cori()
	cfg.Nodes = 4
	cfg.BBNodes = nodes
	cfg.BBBWPerNode = 1 * gb
	cfg.BBLatency = 0
	cfg.OSTs = 4
	e := sim.NewEngine()
	c := topology.New(e, cfg)
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return e, c, s
}

func TestNewRequiresBBNodes(t *testing.T) {
	cfg := topology.Cori()
	cfg.Nodes = 1
	cfg.BBNodes = 0
	c := topology.New(sim.NewEngine(), cfg)
	if _, err := New(c); err == nil {
		t.Error("New accepted a cluster without BB nodes")
	}
}

func TestWriteStripesAcrossBBNodes(t *testing.T) {
	e, c, s := testBB(t, 4)
	f := s.Create("f", 1)
	var done sim.Time
	e.Go("w", func(p *sim.Proc) {
		if err := f.Write(p, 0, 0, int64(4*gb)); err != nil {
			t.Errorf("write: %v", err)
		}
		done = p.Now()
	})
	e.Run()
	// 4 BB nodes × 1 GB/s = 4 GB/s, NIC 8 GB/s: 4 GB in ≈1 s.
	if math.Abs(float64(done)-1.0) > 0.02 {
		t.Errorf("write took %v s, want ≈1.0", done)
	}
	var used int64
	for _, n := range c.BB {
		used += n.Cap.Used()
	}
	if used != int64(4*gb) {
		t.Errorf("BB capacity used = %d, want %d", used, int64(4*gb))
	}
}

func TestSharedFileCapOnBB(t *testing.T) {
	e, _, s := testBB(t, 4)
	f := s.Create("shared", 0.5) // cap at 2 GB/s aggregate
	var last sim.Time
	for i := 0; i < 4; i++ {
		node, off := i, int64(i)*int64(gb)
		e.Go("w", func(p *sim.Proc) {
			f.Write(p, node, off, int64(gb))
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	e.Run()
	// 4 GB at 2 GB/s cap ⇒ ≈2 s.
	if float64(last) < 1.9 {
		t.Errorf("shared BB write finished in %v s, contention cap not applied", last)
	}
}

func TestPrivateFilesScaleWithBBNodes(t *testing.T) {
	e, _, s := testBB(t, 4)
	var last sim.Time
	for i := 0; i < 4; i++ {
		node := i
		f := s.Create("log"+string(rune('0'+i)), 1)
		e.Go("w", func(p *sim.Proc) {
			f.Write(p, node, 0, int64(gb))
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	e.Run()
	// 4 GB total across 4 GB/s of BB nodes ⇒ ≈1 s.
	if math.Abs(float64(last)-1.0) > 0.05 {
		t.Errorf("private files took %v s, want ≈1.0", last)
	}
}

func TestReadSkipsContentionCap(t *testing.T) {
	e, _, s := testBB(t, 4)
	f := s.Create("shared", 0.25)
	var wEnd, rEnd sim.Time
	e.Go("w", func(p *sim.Proc) {
		f.Write(p, 0, 0, int64(2*gb))
		wEnd = p.Now()
		f.Read(p, 0, 0, int64(2*gb))
		rEnd = p.Now()
	})
	e.Run()
	if float64(rEnd-wEnd) >= float64(wEnd) {
		t.Errorf("read (%v s) not faster than capped write (%v s)", rEnd-wEnd, wEnd)
	}
}

func TestCapacityExhaustionAndRecreate(t *testing.T) {
	cfg := topology.Cori()
	cfg.Nodes = 1
	cfg.BBNodes = 2
	cfg.BBCapPerNode = 100
	cfg.BBStripeSize = 10
	cfg.BBLatency = 0
	cfg.OSTs = 1
	e := sim.NewEngine()
	c := topology.New(e, cfg)
	s, _ := New(c)
	f := s.Create("f", 1)
	var err1, err2 error
	e.Go("w", func(p *sim.Proc) {
		err1 = f.Write(p, 0, 0, 150)
		err2 = f.Write(p, 0, 150, 100)
	})
	e.Run()
	if err1 != nil || err2 == nil {
		t.Errorf("err1=%v err2=%v, want nil and capacity error", err1, err2)
	}
	// Re-creating the name truncates the file and releases its space.
	s.Create("f", 1)
	if s.FreeBytes() != 200 {
		t.Errorf("free = %d after re-create, want 200", s.FreeBytes())
	}
}

func TestFilesSpreadStartNodes(t *testing.T) {
	_, _, s := testBB(t, 4)
	starts := map[int]bool{}
	for i := 0; i < 4; i++ {
		f := s.Create("f"+string(rune('0'+i)), 1)
		starts[f.start] = true
	}
	if len(starts) != 4 {
		t.Errorf("4 files used %d distinct start nodes, want 4", len(starts))
	}
}

func TestBBLatencyCharged(t *testing.T) {
	cfg := topology.Cori()
	cfg.Nodes = 1
	cfg.BBNodes = 1
	cfg.BBLatency = 0.02
	cfg.OSTs = 1
	e := sim.NewEngine()
	c := topology.New(e, cfg)
	s, _ := New(c)
	f := s.Create("f", 1)
	var done sim.Time
	e.Go("w", func(p *sim.Proc) {
		f.Write(p, 0, 0, 1)
		done = p.Now()
	})
	e.Run()
	if float64(done) < 0.02 {
		t.Errorf("tiny write took %v, want ≥ latency 0.02", done)
	}
}

// BenchmarkFileWrite times one warm 32-MiB write of a private, reserved log
// file striped over four BB nodes (the per-process log shape UniviStor
// uses); it must report 0 allocs/op.
func BenchmarkFileWrite(b *testing.B) {
	e, _, s := testBB(b, 4)
	e.SetDifferentialCheck(false) // the oracle's global re-solve allocates
	f := s.CreateReserved("log", 1)
	mem := e.NewResource("mem", 10*gb)
	e.Go("writer", func(p *sim.Proc) {
		for warm := 0; warm < 2; warm++ {
			if err := f.Write(p, 0, 0, 32<<20, mem); err != nil {
				b.Error(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.Write(p, 0, 0, 32<<20, mem); err != nil {
				b.Error(err)
			}
		}
		b.StopTimer()
	})
	e.Run()
}
