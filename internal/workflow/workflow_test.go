package workflow

import (
	"testing"

	"univistor/internal/sim"
)

func TestReaderWaitsForWriter(t *testing.T) {
	e := sim.NewEngine()
	m := NewManager(0)
	var readAt sim.Time = -1
	e.Go("writer", func(p *sim.Proc) {
		m.AcquireWrite(p, "f")
		p.Sleep(5)
		m.ReleaseWrite(p, "f")
	})
	e.Go("reader", func(p *sim.Proc) {
		p.Sleep(1) // arrive mid-write
		m.AcquireRead(p, "f")
		readAt = p.Now()
		m.ReleaseRead(p, "f")
	})
	e.Run()
	if readAt != 5 {
		t.Errorf("reader acquired at %v, want 5 (after writer release)", readAt)
	}
	if got := m.StateOf("f"); got != ReadDone {
		t.Errorf("final state %s, want READ_DONE", got)
	}
}

// seedWrite starts a writer that produces the file at t=0, so readers
// arriving later find complete data.
func seedWrite(e *sim.Engine, m *Manager, file string) {
	e.Go("seed", func(p *sim.Proc) {
		m.AcquireWrite(p, file)
		m.ReleaseWrite(p, file)
	})
}

func TestWriterWaitsForReaders(t *testing.T) {
	e := sim.NewEngine()
	m := NewManager(0)
	seedWrite(e, m, "f")
	var writeAt sim.Time = -1
	for i := 0; i < 2; i++ {
		d := float64(3 + i)
		e.Go("reader", func(p *sim.Proc) {
			p.Sleep(1)
			m.AcquireRead(p, "f")
			p.Sleep(d)
			m.ReleaseRead(p, "f")
		})
	}
	e.Go("writer", func(p *sim.Proc) {
		p.Sleep(2)
		m.AcquireWrite(p, "f")
		writeAt = p.Now()
		m.ReleaseWrite(p, "f")
	})
	e.Run()
	// Both readers hold the file from t=1 until t=5 (the slower one).
	if writeAt != 5 {
		t.Errorf("writer acquired at %v, want 5 (after last reader)", writeAt)
	}
}

func TestConcurrentReadersShare(t *testing.T) {
	e := sim.NewEngine()
	m := NewManager(0)
	seedWrite(e, m, "f")
	var acquired []sim.Time
	for i := 0; i < 3; i++ {
		e.Go("reader", func(p *sim.Proc) {
			p.Sleep(1)
			m.AcquireRead(p, "f")
			acquired = append(acquired, p.Now())
			p.Sleep(10)
			m.ReleaseRead(p, "f")
		})
	}
	e.Run()
	if len(acquired) != 3 {
		t.Fatalf("%d readers acquired", len(acquired))
	}
	for _, at := range acquired {
		if at != 1 {
			t.Errorf("reader blocked until %v; readers must share", at)
		}
	}
}

func TestWriterExcludesWriter(t *testing.T) {
	e := sim.NewEngine()
	m := NewManager(0)
	var second sim.Time = -1
	e.Go("w1", func(p *sim.Proc) {
		m.AcquireWrite(p, "f")
		p.Sleep(3)
		m.ReleaseWrite(p, "f")
	})
	e.Go("w2", func(p *sim.Proc) {
		p.Sleep(1)
		m.AcquireWrite(p, "f")
		second = p.Now()
		m.ReleaseWrite(p, "f")
	})
	e.Run()
	if second != 3 {
		t.Errorf("second writer acquired at %v, want 3", second)
	}
}

func TestWriterWaitsForFlush(t *testing.T) {
	e := sim.NewEngine()
	m := NewManager(0)
	var writeAt sim.Time = -1
	e.Go("flusher", func(p *sim.Proc) {
		m.BeginFlush(p, "f")
		p.Sleep(7)
		m.EndFlush(p, "f")
	})
	e.Go("writer", func(p *sim.Proc) {
		p.Sleep(1)
		m.AcquireWrite(p, "f")
		writeAt = p.Now()
		m.ReleaseWrite(p, "f")
	})
	e.Run()
	if writeAt != 7 {
		t.Errorf("writer acquired at %v, want 7 (after flush)", writeAt)
	}
}

func TestReaderProceedsDuringFlush(t *testing.T) {
	e := sim.NewEngine()
	m := NewManager(0)
	var readAt sim.Time = -1
	e.Go("flusher", func(p *sim.Proc) {
		m.BeginFlush(p, "f")
		p.Sleep(7)
		m.EndFlush(p, "f")
	})
	e.Go("reader", func(p *sim.Proc) {
		p.Sleep(1)
		m.AcquireRead(p, "f")
		readAt = p.Now()
		m.ReleaseRead(p, "f")
	})
	e.Run()
	if readAt != 1 {
		t.Errorf("reader acquired at %v during flush, want 1 (no wait)", readAt)
	}
}

func TestFlushWaitsForWriter(t *testing.T) {
	e := sim.NewEngine()
	m := NewManager(0)
	var flushAt sim.Time = -1
	e.Go("writer", func(p *sim.Proc) {
		m.AcquireWrite(p, "f")
		p.Sleep(4)
		m.ReleaseWrite(p, "f")
	})
	e.Go("flusher", func(p *sim.Proc) {
		p.Sleep(1)
		m.BeginFlush(p, "f")
		flushAt = p.Now()
		m.EndFlush(p, "f")
	})
	e.Run()
	if flushAt != 4 {
		t.Errorf("flush began at %v, want 4", flushAt)
	}
}

func TestOpLatencyCharged(t *testing.T) {
	e := sim.NewEngine()
	m := NewManager(0.5)
	var done sim.Time
	e.Go("w", func(p *sim.Proc) {
		m.AcquireWrite(p, "f")
		m.ReleaseWrite(p, "f")
		done = p.Now()
	})
	e.Run()
	if done != 1.0 {
		t.Errorf("two state-file ops took %v, want 1.0", done)
	}
}

func TestWorkflowChainWriterThenReaderPipeline(t *testing.T) {
	// Producer writes 3 "time steps"; consumer reads each as soon as the
	// producer's close releases the write lock — the overlap mode of §III-D.
	e := sim.NewEngine()
	m := NewManager(0)
	var reads []sim.Time
	e.Go("producer", func(p *sim.Proc) {
		for step := 0; step < 3; step++ {
			file := string(rune('a' + step))
			m.AcquireWrite(p, file)
			p.Sleep(2) // write the step
			m.ReleaseWrite(p, file)
			p.Sleep(3) // compute
		}
	})
	e.Go("consumer", func(p *sim.Proc) {
		for step := 0; step < 3; step++ {
			file := string(rune('a' + step))
			m.AcquireRead(p, file)
			reads = append(reads, p.Now())
			p.Sleep(1) // analyze
			m.ReleaseRead(p, file)
		}
	})
	e.Run()
	want := []sim.Time{2, 7, 12}
	if len(reads) != 3 {
		t.Fatalf("reads = %v", reads)
	}
	for i := range want {
		if reads[i] != want[i] {
			t.Errorf("read %d at %v, want %v (overlapped with compute)", i, reads[i], want[i])
		}
	}
}

func TestMismatchedReleasePanics(t *testing.T) {
	e := sim.NewEngine()
	m := NewManager(0)
	panicked := false
	e.Go("bad", func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		m.ReleaseWrite(p, "f")
	})
	e.Run()
	if !panicked {
		t.Error("ReleaseWrite without AcquireWrite did not panic")
	}
}
