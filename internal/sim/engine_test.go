package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestClockAdvancesThroughSleep(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(2.5)
		woke = p.Now()
	})
	end := e.Run()
	if woke != 2.5 {
		t.Errorf("woke at %v, want 2.5", woke)
	}
	if end != 2.5 {
		t.Errorf("simulation ended at %v, want 2.5", end)
	}
}

func TestSleepZeroReturnsImmediately(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Go("p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-1)
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("process did not finish")
	}
	if e.Now() != 0 {
		t.Errorf("clock moved to %v on zero sleep", e.Now())
	}
}

func TestEventOrderingIsDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		for _, name := range []string{"a", "b", "c", "d"} {
			name := name
			e.At(1.0, func() { order = append(order, name) })
		}
		e.At(0.5, func() { order = append(order, "early") })
		e.Run()
		return order
	}
	first := run()
	want := []string{"early", "a", "b", "c", "d"}
	for i, v := range want {
		if first[i] != v {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 20; trial++ {
		got := run()
		for i := range want {
			if got[i] != first[i] {
				t.Fatalf("non-deterministic ordering on trial %d: %v vs %v", trial, got, first)
			}
		}
	}
}

func TestSingleFlowUsesFullCapacity(t *testing.T) {
	e := NewEngine()
	r := NewResource("disk", 100) // 100 B/s
	e.Go("writer", func(p *Proc) { p.Transfer(500, r) })
	end := e.Run()
	if !almostEqual(float64(end), 5.0, 1e-9) {
		t.Errorf("transfer finished at %v, want 5.0", end)
	}
}

func TestTwoFlowsShareEqually(t *testing.T) {
	e := NewEngine()
	r := NewResource("disk", 100)
	var t1, t2 Time
	e.Go("w1", func(p *Proc) { p.Transfer(500, r); t1 = p.Now() })
	e.Go("w2", func(p *Proc) { p.Transfer(500, r); t2 = p.Now() })
	e.Run()
	// Both share 100 B/s, so each gets 50 B/s for 500 B = 10 s.
	if !almostEqual(float64(t1), 10, 1e-6) || !almostEqual(float64(t2), 10, 1e-6) {
		t.Errorf("completion times %v, %v, want 10, 10", t1, t2)
	}
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	e := NewEngine()
	r := NewResource("disk", 100)
	var tShort, tLong Time
	e.Go("short", func(p *Proc) { p.Transfer(100, r); tShort = p.Now() })
	e.Go("long", func(p *Proc) { p.Transfer(900, r); tLong = p.Now() })
	e.Run()
	// Shared at 50 B/s until the short flow's 100 B drain at t=2.
	// The long flow then has 900-100=800 B at 100 B/s: done at t=10.
	if !almostEqual(float64(tShort), 2, 1e-6) {
		t.Errorf("short flow finished at %v, want 2", tShort)
	}
	if !almostEqual(float64(tLong), 10, 1e-6) {
		t.Errorf("long flow finished at %v, want 10", tLong)
	}
}

func TestMultiResourceFlowLimitedByBottleneck(t *testing.T) {
	e := NewEngine()
	nic := NewResource("nic", 50)
	disk := NewResource("disk", 100)
	var done Time
	e.Go("w", func(p *Proc) { p.Transfer(500, nic, disk); done = p.Now() })
	e.Run()
	if !almostEqual(float64(done), 10, 1e-6) {
		t.Errorf("finished at %v, want 10 (bottleneck 50 B/s)", done)
	}
}

func TestMaxMinAsymmetricShares(t *testing.T) {
	// Flow A crosses a slow private link (cap 10) and a shared disk (cap 100).
	// Flow B crosses only the disk. Max-min: A gets 10, B gets 90.
	e := NewEngine()
	link := NewResource("link", 10)
	disk := NewResource("disk", 100)
	var tA, tB Time
	e.Go("a", func(p *Proc) { p.Transfer(100, link, disk); tA = p.Now() })
	e.Go("b", func(p *Proc) { p.Transfer(900, disk); tB = p.Now() })
	e.Run()
	if !almostEqual(float64(tA), 10, 1e-6) {
		t.Errorf("flow A finished at %v, want 10 (rate 10)", tA)
	}
	if !almostEqual(float64(tB), 10, 1e-6) {
		t.Errorf("flow B finished at %v, want 10 (rate 90)", tB)
	}
}

// Per-tenant rate caps are plain resources on each flow's path: two loose
// caps split the shared link max-min fairly, and a tight cap gets exactly
// its ceiling while the slack flows to the others.
func TestRateCapsShareLinkMaxMin(t *testing.T) {
	e := NewEngine()
	link := NewResource("link", 100)
	caps := map[string]*Resource{
		"a": NewResource("tenant:a", 1000),
		"b": NewResource("tenant:b", 1000),
		"c": NewResource("tenant:c", 10),
	}
	ends := map[string]Time{}
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Go(name, func(p *Proc) {
			p.Transfer(90, link, caps[name])
			ends[name] = p.Now()
		})
	}
	e.Run()
	// c runs at its 10 B/s cap for 9 s; a and b split the remaining
	// 90 B/s, so each moves 90 B in 2 s.
	if !almostEqual(float64(ends["a"]), 2, 1e-6) || !almostEqual(float64(ends["b"]), 2, 1e-6) {
		t.Errorf("loosely capped flows finished at %v/%v, want 2 each", ends["a"], ends["b"])
	}
	if !almostEqual(float64(ends["c"]), 9, 1e-6) {
		t.Errorf("tightly capped flow finished at %v, want 9", ends["c"])
	}
}

func TestStartTransferCallback(t *testing.T) {
	e := NewEngine()
	r := NewResource("disk", 10)
	var doneAt Time = -1
	e.StartTransfer(100, func() { doneAt = e.Now() }, r)
	e.Run()
	if !almostEqual(float64(doneAt), 10, 1e-6) {
		t.Errorf("callback at %v, want 10", doneAt)
	}
}

func TestZeroSizeTransferCompletesInstantly(t *testing.T) {
	e := NewEngine()
	r := NewResource("disk", 10)
	var at Time = -1
	e.Go("w", func(p *Proc) { p.Transfer(0, r); at = p.Now() })
	e.Run()
	if at != 0 {
		t.Errorf("zero transfer completed at %v, want 0", at)
	}
}

func TestMailboxFIFOAndBlocking(t *testing.T) {
	e := NewEngine()
	m := NewMailbox(e)
	var got []int
	var recvAt []Time
	e.Go("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, m.Recv(p).(int))
			recvAt = append(recvAt, p.Now())
		}
	})
	e.Go("send", func(p *Proc) {
		m.Send(1)
		p.Sleep(1)
		m.Send(2)
		m.Send(3)
	})
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("received %v, want [1 2 3]", got)
	}
	if recvAt[1] != 1 || recvAt[2] != 1 {
		t.Errorf("recv times %v, want blocking until t=1", recvAt)
	}
}

func TestMailboxMultipleWaitersServedInOrder(t *testing.T) {
	e := NewEngine()
	m := NewMailbox(e)
	var order []string
	e.Go("r1", func(p *Proc) { m.Recv(p); order = append(order, "r1") })
	e.Go("r2", func(p *Proc) { m.Recv(p); order = append(order, "r2") })
	e.Go("send", func(p *Proc) {
		p.Sleep(1)
		m.Send("x")
		m.Send("y")
	})
	e.Run()
	if len(order) != 2 || order[0] != "r1" || order[1] != "r2" {
		t.Errorf("service order %v, want [r1 r2]", order)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	m := NewMailbox(e)
	e.Go("stuck", func(p *Proc) { m.Recv(p) })
	e.Run()
	if e.Deadlocked() != 1 {
		t.Errorf("Deadlocked() = %d, want 1", e.Deadlocked())
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	var wg WaitGroup
	wg.Add(3)
	var doneAt Time = -1
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := float64(i)
		e.Go("worker", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	e.Run()
	if doneAt != 3 {
		t.Errorf("waiter resumed at %v, want 3", doneAt)
	}
}

func TestBarrierReusable(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(3)
	var times []Time
	for i := 0; i < 3; i++ {
		d := float64(i)
		e.Go("p", func(p *Proc) {
			p.Sleep(d)
			b.Wait(p)
			times = append(times, p.Now())
			p.Sleep(d + 1)
			b.Wait(p)
			times = append(times, p.Now())
		})
	}
	e.Run()
	if len(times) != 6 {
		t.Fatalf("got %d barrier passages, want 6", len(times))
	}
	for _, at := range times[:3] {
		if at != 2 {
			t.Errorf("first round release at %v, want 2", at)
		}
	}
	for _, at := range times[3:] {
		if at != 5 { // slowest: slept 2, barrier at 2, slept 3 more
			t.Errorf("second round release at %v, want 5", at)
		}
	}
}

func TestEventLevelTriggered(t *testing.T) {
	e := NewEngine()
	var ev Event
	var first, late Time
	e.Go("w1", func(p *Proc) { ev.Wait(p); first = p.Now() })
	e.Go("setter", func(p *Proc) { p.Sleep(2); ev.Set() })
	e.Go("w2", func(p *Proc) { p.Sleep(5); ev.Wait(p); late = p.Now() })
	e.Run()
	if first != 2 {
		t.Errorf("waiter before Set resumed at %v, want 2", first)
	}
	if late != 5 {
		t.Errorf("waiter after Set resumed at %v, want 5 (no blocking)", late)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(1, func() { fired++ })
	e.At(3, func() { fired++ })
	e.RunUntil(2)
	if fired != 1 {
		t.Errorf("fired %d events by t=2, want 1", fired)
	}
	if e.Now() != 2 {
		t.Errorf("now = %v, want 2", e.Now())
	}
	e.Run()
	if fired != 2 {
		t.Errorf("fired %d events total, want 2", fired)
	}
}

func TestSpawnFromInsideProc(t *testing.T) {
	e := NewEngine()
	var childAt Time = -1
	e.Go("parent", func(p *Proc) {
		p.Sleep(1)
		e.Go("child", func(c *Proc) {
			c.Sleep(1)
			childAt = c.Now()
		})
		p.Sleep(5)
	})
	e.Run()
	if childAt != 2 {
		t.Errorf("child finished at %v, want 2", childAt)
	}
}

// maxMinRates runs one allocation round through the engine and reports each
// flow's observed rate by measuring completion of equal-remaining flows.
// Property: max-min allocation conserves capacity and saturates at least one
// resource (work conservation) for every random configuration.
func TestMaxMinPropertyConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nRes := 1 + rng.Intn(4)
		nFlows := 1 + rng.Intn(8)
		e := NewEngine()
		resources := make([]*Resource, nRes)
		for i := range resources {
			resources[i] = NewResource(string(rune('A'+i)), 10+rng.Float64()*90)
		}
		flows := make([]*flow, nFlows)
		for i := range flows {
			// Each flow crosses a random non-empty subset of resources.
			var rs []*Resource
			for _, r := range resources {
				if rng.Intn(2) == 0 {
					rs = append(rs, r)
				}
			}
			if len(rs) == 0 {
				rs = append(rs, resources[rng.Intn(nRes)])
			}
			flows[i] = &flow{resources: rs, remaining: 1e12}
			e.flows.add(flows[i])
		}
		e.flows.runPending()
		// Check 1: no resource over capacity.
		for _, r := range resources {
			used := 0.0
			for _, f := range flows {
				for _, fr := range f.resources {
					if fr == r {
						used += f.rate
					}
				}
			}
			if used > r.Capacity*(1+1e-9) {
				return false
			}
		}
		// Check 2: every flow got a positive rate.
		for _, f := range flows {
			if f.rate <= 0 {
				return false
			}
		}
		// Check 3 (max-min): for each flow, at least one of its resources is
		// saturated OR the flow is the unique max-rate flow on a saturated
		// resource. Weaker practical check: each flow crosses at least one
		// resource whose total allocation is within tolerance of capacity.
		for _, f := range flows {
			saturated := false
			for _, r := range f.resources {
				used := 0.0
				for _, g := range flows {
					for _, gr := range g.resources {
						if gr == r {
							used += g.rate
						}
					}
				}
				if used >= r.Capacity*(1-1e-6) {
					saturated = true
				}
			}
			if !saturated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a set of identical flows over one resource all finish at
// size*n/capacity regardless of n.
func TestEqualFlowsFinishTogetherProperty(t *testing.T) {
	prop := func(nRaw uint8, sizeRaw uint16) bool {
		n := int(nRaw)%16 + 1
		size := float64(sizeRaw%1000) + 1
		e := NewEngine()
		r := NewResource("disk", 100)
		var finish []Time
		for i := 0; i < n; i++ {
			e.Go("w", func(p *Proc) {
				p.Transfer(size, r)
				finish = append(finish, p.Now())
			})
		}
		e.Run()
		want := size * float64(n) / 100
		for _, f := range finish {
			if !almostEqual(float64(f), want, 1e-6*want+1e-9) {
				return false
			}
		}
		return len(finish) == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// utilSampler records the last ResourceSample of each resource, so tests
// can compare the recorded timeline against Utilization, and the order in
// which resources were first sampled.
type utilSampler struct {
	last  map[*Resource]float64
	order []*Resource
}

func (s *utilSampler) FlowBegin(Time, int64, float64, []*Resource) {}
func (s *utilSampler) FlowEnd(Time, int64)                         {}
func (s *utilSampler) Instant(Time, string, string)                {}
func (s *utilSampler) Counter(Time, string, int64)                 {}
func (s *utilSampler) ResourceSample(_ Time, r *Resource, rate float64) {
	if s.last == nil {
		s.last = map[*Resource]float64{}
	}
	if _, seen := s.last[r]; !seen {
		s.order = append(s.order, r)
	}
	s.last[r] = rate
}

func TestUtilizationCountsRepeatCrossingOnce(t *testing.T) {
	// A flow whose path crosses the same resource twice is charged two
	// capacity shares by the allocator (it really moves its bytes through
	// the resource twice), but the flow itself runs at one rate.
	// Utilization must report that rate once — matching ResourceSample —
	// not once per crossing.
	e := NewEngine()
	s := &utilSampler{}
	e.SetTracer(s)
	r := NewResource("loop", 100)
	var mid float64
	e.Go("w", func(p *Proc) { p.Transfer(500, r, r) })
	e.After(1, func() { mid = r.Utilization() })
	e.Run()
	// Two crossings of a 100 B/s resource: the allocator grants 50 B/s.
	if !almostEqual(mid, 0.5, 1e-9) {
		t.Errorf("mid-flow Utilization = %v, want 0.5 (one count of the 50 B/s rate)", mid)
	}
	if got := s.last[r]; !almostEqual(got, 0, 1e-9) {
		t.Errorf("final ResourceSample = %v, want 0 after completion", got)
	}
	if u := r.Utilization(); u != 0 {
		t.Errorf("Utilization after completion = %v, want 0", u)
	}
}

func TestUtilizationMatchesResourceSample(t *testing.T) {
	e := NewEngine()
	s := &utilSampler{}
	e.SetTracer(s)
	nic := NewResource("nic", 100)
	disk := NewResource("disk", 400)
	e.Go("w1", func(p *Proc) { p.Transfer(1000, nic, disk) })
	e.Go("w2", func(p *Proc) { p.Transfer(1000, disk) })
	e.After(1, func() {
		for _, r := range []*Resource{nic, disk} {
			want := s.last[r] / r.Capacity
			if got := r.Utilization(); !almostEqual(got, want, 1e-9) {
				t.Errorf("Utilization(%s) = %v, want %v (last ResourceSample)", r.Name, got, want)
			}
		}
	})
	e.Run()
}

func TestUtilizationZeroAfterFlowsDrain(t *testing.T) {
	e := NewEngine()
	r := NewResource("disk", 100)
	e.Go("w", func(p *Proc) { p.Transfer(100, r) })
	var during float64
	e.After(0.5, func() { during = r.Utilization() })
	e.Run()
	if !almostEqual(during, 1.0, 1e-9) {
		t.Errorf("Utilization during single flow = %v, want 1.0", during)
	}
	if u := r.Utilization(); u != 0 {
		t.Errorf("Utilization after drain = %v, want 0", u)
	}
}

func TestCheckFlowConservation(t *testing.T) {
	e := NewEngine()
	a := NewResource("a", 100)
	b := NewResource("b", 50)
	e.Go("w1", func(p *Proc) { p.Transfer(1000, a, b) })
	e.Go("w2", func(p *Proc) { p.Transfer(1000, a) })
	checked := false
	e.After(1, func() {
		if v := e.CheckFlowConservation(1e-6); len(v) != 0 {
			t.Errorf("unexpected conservation violations: %v", v)
		}
		// Degrading a capacity without recomputing leaves the stale rates
		// over-allocating the resource — exactly what the check reports.
		a.Capacity = 10
		if v := e.CheckFlowConservation(1e-6); len(v) == 0 {
			t.Error("expected a violation after capacity cut without recompute")
		}
		// RecomputeResources restores conservation under the new capacity.
		e.RecomputeResources(a)
		if v := e.CheckFlowConservation(1e-6); len(v) != 0 {
			t.Errorf("violations after recompute: %v", v)
		}
		checked = true
	})
	e.Run()
	if !checked {
		t.Fatal("check callback never ran")
	}
}

// TestQueueServe: a request starts at max(arrival, Free), holds the queue
// for its service time, and the completion becomes the new Free.
func TestQueueServe(t *testing.T) {
	var q Queue
	steps := []struct {
		arrival Time
		service float64
		want    Time
	}{
		{1, 2, 3}, // idle queue: starts on arrival
		{2, 1, 4}, // arrives while busy: waits until 3
		{10, 0.5, 10.5},
	}
	for i, s := range steps {
		if got := q.Serve(s.arrival, s.service); got != s.want || q.Free != s.want {
			t.Errorf("step %d: Serve = %v, Free = %v, want %v", i, got, q.Free, s.want)
		}
	}
}
