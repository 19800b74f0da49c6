package sim

// Mailbox is an unbounded FIFO message queue between simulated processes.
// Send never blocks; Recv blocks the receiving process until a message is
// available. Multiple receivers are served in the order they blocked.
type Mailbox struct {
	e       *Engine
	queue   []any
	waiters []*Proc
}

// NewMailbox returns an empty mailbox bound to the engine.
func NewMailbox(e *Engine) *Mailbox {
	return &Mailbox{e: e}
}

// Send enqueues v and wakes the oldest waiting receiver, if any. It may be
// called from process or dispatcher context.
func (m *Mailbox) Send(v any) {
	m.queue = append(m.queue, v)
	if len(m.waiters) > 0 {
		popFront(&m.waiters).Resume()
	}
}

// Recv dequeues the oldest message, blocking p until one is available.
func (m *Mailbox) Recv(p *Proc) any {
	for len(m.queue) == 0 {
		m.waiters = append(m.waiters, p)
		p.Park()
	}
	return popFront(&m.queue)
}

// popFront removes and returns the head of a FIFO slice. Taking the last
// element rewinds onto the backing array, so a queue that drains between
// uses never reallocates.
func popFront[T any](q *[]T) T {
	s := *q
	v := s[0]
	clear(s[:1])
	if *q = s[1:]; len(s) == 1 {
		*q = s[:0]
	}
	return v
}

// WaitGroup counts outstanding pieces of simulated work, like sync.WaitGroup
// but mediated by the engine.
type WaitGroup struct {
	count   int
	waiters []*Proc
}

// Add adjusts the counter by delta. When the counter reaches zero all
// waiting processes are resumed. Add panics if the counter goes negative.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("sim: WaitGroup counter went negative")
	}
	if wg.count == 0 {
		for _, w := range wg.waiters {
			w.Resume()
		}
		wg.waiters = nil
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the counter is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.waiters = append(wg.waiters, p)
		p.Park()
	}
}

// Barrier blocks a fixed-size group of processes until all have arrived.
// It is reusable: after release it resets for the next round.
type Barrier struct {
	n       int
	arrived int
	round   int64
	waiters []*Proc
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier size must be positive")
	}
	return &Barrier{n: n}
}

// Wait blocks p until n processes have called Wait for the current round.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.round++
		for _, w := range b.waiters {
			w.Resume()
		}
		// Resume only schedules, so the array is free for the next
		// round: keep it, dropping the pointers.
		clear(b.waiters)
		b.waiters = b.waiters[:0]
		return
	}
	round := b.round
	b.waiters = append(b.waiters, p)
	for b.round == round {
		p.Park()
	}
}

// Event is a one-shot level-triggered signal: Wait blocks until Set has been
// called; once set, all current and future waiters proceed immediately.
type Event struct {
	set     bool
	waiters []*Proc
}

// Set marks the event and wakes all waiters. Setting twice is a no-op.
func (ev *Event) Set() {
	if ev.set {
		return
	}
	ev.set = true
	for _, w := range ev.waiters {
		w.Resume()
	}
	ev.waiters = nil
}

// Wait blocks p until the event is set.
func (ev *Event) Wait(p *Proc) {
	for !ev.set {
		ev.waiters = append(ev.waiters, p)
		p.Park()
	}
}

// Queue is an analytic single-server FIFO queue: requests serialize on
// Free, the instant the server next becomes idle, in one closed-form
// M/D/1-style step instead of as fluid flows, which keeps the allocator
// out of microsecond-scale control planes.
type Queue struct{ Free Time }

// Serve books a request arriving at arrival that holds the server for
// service seconds. It starts at max(arrival, Free) and completes at the
// returned time, which becomes the new Free.
func (q *Queue) Serve(arrival Time, service float64) Time {
	start := arrival
	if q.Free > start {
		start = q.Free
	}
	q.Free = start + Time(service)
	return q.Free
}
