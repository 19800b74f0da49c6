//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: an iter.Pull coroutine that the dispatcher
// resumes with next and that parks by yielding back. A panic in its body
// re-panics, with the same value, out of Run.
type Proc struct {
	e       *Engine
	id      int64
	name    string
	body    func(p *Proc)           // what Go was given; started by the first step
	next    func() (struct{}, bool) // runs the body until it parks or returns
	yield   func(struct{}) bool     // parks the body; called only from it
	pending bool                    // a resume event is queued (at most one)
	fanout  int                     // TransferAll pieces still in flight
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// ID returns the engine-unique process id.
func (p *Proc) ID() int64 { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Go spawns a new simulated process running fn. The process starts at the
// current virtual time, after the caller blocks or returns. Go may be called
// before Run or from inside a running process.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{e: e, id: e.procSeq, name: name, body: fn}
	e.parked++ // waits at its entry for the first resume
	p.Resume()
	return p
}

// step is the dispatcher's half of an evResume: it runs the process until
// it parks again or returns. The first step creates the coroutine, so a
// spawn costs nothing until the process runs.
func (p *Proc) step() {
	p.pending = false
	p.e.parked--
	if p.next == nil {
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			p.body(p)
		})
	}
	p.next()
}

// Park blocks the process until some other process or event callback calls
// Resume. It is the building block for synchronization primitives; every
// Park must be matched by exactly one prior or future Resume.
func (p *Proc) Park() {
	p.e.parked++
	p.yield(struct{}{})
}

// Resume schedules a parked process to continue at the current virtual
// time, from dispatcher or process context (both are serialized, so no
// locking is needed). A second Resume before the process has run panics;
// primitives must track their waiters so that each Park gets one Resume.
func (p *Proc) Resume() { p.resumeAt(p.e.now) }

// resumeAt schedules the parked process to continue at absolute time t.
// The continuation is a typed event, not a closure, so parking and
// resuming allocate nothing in steady state.
func (p *Proc) resumeAt(t Time) {
	if p.pending {
		panic(fmt.Sprintf("sim: process %q resumed while a resume is pending", p.name))
	}
	p.pending = true
	p.e.at(t, event{kind: evResume, proc: p})
}

// Sleep suspends the process for d seconds of virtual time. A non-positive d
// returns immediately without yielding.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	p.resumeAt(p.e.now + Time(d))
	p.Park()
}
