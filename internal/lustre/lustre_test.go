package lustre

import (
	"fmt"
	"math"
	"testing"

	"univistor/internal/sim"
	"univistor/internal/topology"
)

const gb = float64(1 << 30)

func testFS(t *testing.T, osts int) (*sim.Engine, *topology.Cluster, *FS) {
	t.Helper()
	cfg := topology.Cori()
	cfg.Nodes = 4
	cfg.BBNodes = 2
	cfg.OSTs = osts
	cfg.OSTBW = 1 * gb
	cfg.NICBW = 8 * gb
	cfg.PFSLatency = 0         // most tests want pure bandwidth behaviour
	cfg.PFSClientBW = 100 * gb // neutralize the client stack for OST math
	e := sim.NewEngine()
	c := topology.New(e, cfg)
	return e, c, NewFS(c)
}

func TestCreateValidatesSpec(t *testing.T) {
	_, _, fs := testFS(t, 4)
	if _, err := fs.Create("a", StripeSpec{Size: 0, Count: 1, StartOST: 0}, 1); err == nil {
		t.Error("zero stripe size accepted")
	}
	if _, err := fs.Create("a", StripeSpec{Size: 1 << 20, Count: 5, StartOST: 0}, 1); err == nil {
		t.Error("stripe count beyond OSTs accepted")
	}
	if _, err := fs.Create("a", StripeSpec{Size: 1 << 20, Count: 1, StartOST: 9}, 1); err == nil {
		t.Error("start OST out of range accepted")
	}
	if _, err := fs.Create("a", StripeSpec{Size: 1 << 20, Count: 1, StartOST: AutoStart}, 1); err != nil {
		t.Errorf("default stripe rejected: %v", err)
	}
}

func TestAutoStartRoundRobins(t *testing.T) {
	_, _, fs := testFS(t, 4)
	f1, _ := fs.Create("f1", StripeSpec{Size: 1 << 20, Count: 2, StartOST: AutoStart}, 1)
	f2, _ := fs.Create("f2", StripeSpec{Size: 1 << 20, Count: 2, StartOST: AutoStart}, 1)
	f3, _ := fs.Create("f3", StripeSpec{Size: 1 << 20, Count: 2, StartOST: AutoStart}, 1)
	if f1.Spec().StartOST != 0 || f2.Spec().StartOST != 2 || f3.Spec().StartOST != 0 {
		t.Errorf("auto starts = %d, %d, %d, want 0, 2, 0",
			f1.Spec().StartOST, f2.Spec().StartOST, f3.Spec().StartOST)
	}
}

func TestTouchedOSTsFollowStriping(t *testing.T) {
	_, _, fs := testFS(t, 8)
	f, _ := fs.Create("f", StripeSpec{Size: 100, Count: 3, StartOST: 2}, 1)
	// Bytes [0,300) are stripes 0,1,2 → OSTs 2,3,4.
	got := f.TouchedOSTs(0, 300)
	want := []int{2, 3, 4}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("TouchedOSTs = %v, want %v", got, want)
	}
	// Range inside one stripe touches exactly one OST.
	if got := f.TouchedOSTs(150, 20); len(got) != 1 || got[0] != 3 {
		t.Errorf("single-stripe range touched %v", got)
	}
	// Wraps around the OST array.
	f2, _ := fs.Create("g", StripeSpec{Size: 100, Count: 3, StartOST: 7}, 1)
	got = f2.TouchedOSTs(0, 300)
	if len(got) != 3 || got[0] != 7 || got[1] != 0 || got[2] != 1 {
		t.Errorf("wrap TouchedOSTs = %v, want [7 0 1]", got)
	}
}

func TestWriteBandwidthSingleWriter(t *testing.T) {
	e, _, fs := testFS(t, 8)
	f, _ := fs.Create("f", StripeSpec{Size: 1 << 20, Count: 4, StartOST: 0}, 1)
	size := int64(4 * gb)
	var done sim.Time
	e.Go("w", func(p *sim.Proc) {
		if err := f.Write(p, 0, 0, size); err != nil {
			t.Errorf("write: %v", err)
		}
		done = p.Now()
	})
	e.Run()
	// 4 OSTs × 1 GB/s = 4 GB/s (NIC is 8): 4 GB in 1 s.
	if math.Abs(float64(done)-1.0) > 0.01 {
		t.Errorf("write took %v s, want ≈1.0", done)
	}
}

func TestSharedFileLockCapsAggregate(t *testing.T) {
	e, _, fs := testFS(t, 8)
	// 8 stripes at lockEff 0.25 → aggregate cap 2 GB/s.
	f, _ := fs.Create("shared", StripeSpec{Size: 1 << 20, Count: 8, StartOST: 0}, 0.25)
	perWriter := int64(1 * gb)
	var last sim.Time
	for i := 0; i < 4; i++ {
		node := i
		off := int64(i) * perWriter
		e.Go("w", func(p *sim.Proc) {
			if err := f.Write(p, node, off, perWriter); err != nil {
				t.Errorf("write: %v", err)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	e.Run()
	// 4 GB total at a 2 GB/s cap ⇒ ≥ 2 s (raw stripes would take 0.5 s).
	if float64(last) < 1.9 {
		t.Errorf("shared-file write finished in %v s, lock cap not applied", last)
	}
}

func TestFilePerProcessAvoidsLockCap(t *testing.T) {
	e, _, fs := testFS(t, 8)
	perWriter := int64(1 * gb)
	var last sim.Time
	for i := 0; i < 4; i++ {
		node := i
		f, _ := fs.Create(fmt.Sprintf("fpp%d", i), StripeSpec{Size: 1 << 20, Count: 2, StartOST: 2 * i}, 1)
		e.Go("w", func(p *sim.Proc) {
			if err := f.Write(p, node, 0, perWriter); err != nil {
				t.Errorf("write: %v", err)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	e.Run()
	// Each writer has 2 private OSTs (2 GB/s): 1 GB in 0.5 s.
	if math.Abs(float64(last)-0.5) > 0.02 {
		t.Errorf("file-per-process writes took %v s, want ≈0.5", last)
	}
}

func TestStragglerFromUnevenServerToOSTMapping(t *testing.T) {
	// 3 writers, 2 OSTs, each writer striped to one OST: OST 0 carries two
	// writers and finishes last — the Eq. 5 straggler effect.
	e, _, fs := testFS(t, 2)
	size := int64(1 * gb)
	finish := make([]sim.Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		f, _ := fs.Create("r"+string(rune('0'+i)), StripeSpec{Size: 1 << 30, Count: 1, StartOST: i % 2}, 1)
		e.Go("w", func(p *sim.Proc) {
			if err := f.Write(p, i, 0, size); err != nil {
				t.Errorf("write: %v", err)
			}
			finish[i] = p.Now()
		})
	}
	e.Run()
	// Writers 0 and 2 share OST 0: slower than writer 1 on OST 1.
	if !(finish[1] < finish[0] && finish[1] < finish[2]) {
		t.Errorf("finish times %v: lone writer should finish first", finish)
	}
	if float64(finish[0]) < 1.9 {
		t.Errorf("straggler finished at %v, want ≈2 s (two writers on one 1 GB/s OST)", finish[0])
	}
}

func TestPerOSTRPCLatency(t *testing.T) {
	cfg := topology.Cori()
	cfg.Nodes = 1
	cfg.BBNodes = 1
	cfg.OSTs = 16
	cfg.PFSLatency = 0.01
	e := sim.NewEngine()
	c := topology.New(e, cfg)
	fs := NewFS(c)
	f, _ := fs.Create("f", StripeSpec{Size: 1, Count: 16, StartOST: 0}, 1)
	var done sim.Time
	e.Go("w", func(p *sim.Proc) {
		f.Write(p, 0, 0, 16) // 16 bytes over 16 OSTs: latency dominates
		done = p.Now()
	})
	e.Run()
	if float64(done) < 0.16 {
		t.Errorf("16-OST write took %v, want ≥ 0.16 (16 RPCs × 10 ms)", done)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	cfg := topology.Cori()
	cfg.Nodes = 1
	cfg.BBNodes = 1
	cfg.OSTs = 2
	cfg.OSTCapacity = 100
	cfg.PFSLatency = 0
	e := sim.NewEngine()
	c := topology.New(e, cfg)
	fs := NewFS(c)
	f, _ := fs.Create("f", StripeSpec{Size: 10, Count: 2, StartOST: 0}, 1)
	var err1, err2 error
	e.Go("w", func(p *sim.Proc) {
		err1 = f.Write(p, 0, 0, 150)
		err2 = f.Write(p, 0, 150, 100)
	})
	e.Run()
	if err1 != nil {
		t.Errorf("first write failed: %v", err1)
	}
	if err2 == nil {
		t.Error("write beyond OST capacity succeeded")
	}
}

func TestRecreateReleasesCapacity(t *testing.T) {
	cfg := topology.Cori()
	cfg.Nodes = 1
	cfg.BBNodes = 1
	cfg.OSTs = 2
	cfg.OSTCapacity = 100
	cfg.PFSLatency = 0
	e := sim.NewEngine()
	c := topology.New(e, cfg)
	fs := NewFS(c)
	f, _ := fs.Create("f", StripeSpec{Size: 10, Count: 2, StartOST: 0}, 1)
	e.Go("w", func(p *sim.Proc) { f.Write(p, 0, 0, 150) })
	e.Run()
	used := c.OSTs[0].Cap.Used() + c.OSTs[1].Cap.Used()
	if used != 150 {
		t.Fatalf("used = %d, want 150", used)
	}
	// Re-creating the name truncates the file and releases its capacity.
	if _, err := fs.Create("f", StripeSpec{Size: 10, Count: 2, StartOST: 0}, 1); err != nil {
		t.Fatal(err)
	}
	if c.OSTs[0].Cap.Used()+c.OSTs[1].Cap.Used() != 0 {
		t.Error("capacity not released on re-create")
	}
}

func TestOverwriteDoesNotDoubleCharge(t *testing.T) {
	cfg := topology.Cori()
	cfg.Nodes = 1
	cfg.BBNodes = 1
	cfg.OSTs = 2
	cfg.OSTCapacity = 1000
	cfg.PFSLatency = 0
	e := sim.NewEngine()
	c := topology.New(e, cfg)
	fs := NewFS(c)
	f, _ := fs.Create("f", StripeSpec{Size: 10, Count: 2, StartOST: 0}, 1)
	e.Go("w", func(p *sim.Proc) {
		f.Write(p, 0, 0, 100)
		f.Write(p, 0, 0, 100) // same range again
	})
	e.Run()
	if used := c.OSTs[0].Cap.Used() + c.OSTs[1].Cap.Used(); used != 100 {
		t.Errorf("used = %d after overwrite, want 100", used)
	}
}

func TestReadUsesMilderLock(t *testing.T) {
	e, _, fs := testFS(t, 4)
	f, _ := fs.Create("f", StripeSpec{Size: 1 << 20, Count: 4, StartOST: 0}, 0.25)
	// Seed the file once.
	var wDone, rDone sim.Time
	e.Go("seed", func(p *sim.Proc) {
		f.Write(p, 0, 0, int64(4*gb))
		wDone = p.Now()
		f.Read(p, 0, 0, int64(4*gb))
		rDone = p.Now()
	})
	e.Run()
	writeTime := float64(wDone)
	readTime := float64(rDone - wDone)
	if readTime >= writeTime {
		t.Errorf("read %v s not faster than locked write %v s", readTime, writeTime)
	}
}
