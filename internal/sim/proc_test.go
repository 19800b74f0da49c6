package sim

import (
	"runtime"
	"strings"
	"testing"
)

// runRecovered runs e to completion and returns what Run panicked with,
// or nil.
func runRecovered(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

// TestProcPanicSurfacesFromRun: a panic in a process body unwinds out of
// Run on the calling goroutine with its original value, so it can be
// recovered instead of killing the host process.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	e.Go("bystander", func(p *Proc) { p.Sleep(10) })
	e.Go("faulty", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	if r := runRecovered(e); r != "boom" {
		t.Fatalf("Run panicked with %v, want boom", r)
	}
	if e.Now() != 1 {
		t.Errorf("panic surfaced at t=%v, want 1", e.Now())
	}
}

// TestDoubleResumePanics: resuming a parked process twice before it runs
// would run its body twice in one park; the second resume panics with the
// process name, out of Run like any process panic.
func TestDoubleResumePanics(t *testing.T) {
	e := NewEngine()
	waiter := e.Go("waiter", func(p *Proc) { p.Park() })
	e.Go("waker", func(p *Proc) {
		p.Sleep(1)
		waiter.Resume()
		waiter.Resume()
	})
	r := runRecovered(e)
	if msg, _ := r.(string); !strings.Contains(msg, `"waiter"`) {
		t.Fatalf("Run panicked with %v, want a double-resume panic naming the waiter", r)
	}
}

// pingPong spawns two processes that alternate for rounds rounds: the
// sender sleeps one unit and sends, the receiver blocks in Recv. Each round
// is two resumes; *resumes counts them as they happen.
func pingPong(e *Engine, rounds int, resumes *int) {
	m := NewMailbox(e)
	e.Go("sender", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Sleep(1)
			*resumes++
			m.Send(struct{}{})
		}
	})
	e.Go("receiver", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			m.Recv(p)
			*resumes++
		}
	})
}

// TestProcSwitchDoesNotAllocate: once the event heap and the mailbox have
// grown, parking and resuming a process allocates nothing.
func TestProcSwitchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const warm, rounds = 100, 20000
	e := NewEngine()
	resumes := 0
	pingPong(e, warm+rounds, &resumes)
	runTo(e, warm)
	resumes = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Run()
	runtime.ReadMemStats(&after)
	if resumes != 2*rounds {
		t.Fatalf("counted %d resumes, want %d", resumes, 2*rounds)
	}
	if per := float64(after.Mallocs-before.Mallocs) / float64(resumes); per >= 0.01 {
		t.Errorf("%.3f allocations per process switch, want 0", per)
	}
}

// BenchmarkProcSwitch measures one process resume: the dispatcher switching
// into a parked process and back as it parks again.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	resumes := 0
	pingPong(e, b.N/2+1, &resumes)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
