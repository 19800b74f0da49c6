package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// The hole-sifting event heap pops in (t, seq) order: callbacks scheduled
// at now, at later times and at clamped past times, from the top level and
// from inside other callbacks, run exactly in (time, schedule order).
func TestEventQueuePopsInTimeSeqOrder(t *testing.T) {
	type stamp struct {
		t   Time
		seq int
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		e := NewEngine()
		var want, got []stamp
		seq := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			for n := rng.Intn(4); n > 0; n-- {
				var at Time
				switch rng.Intn(4) {
				case 0:
					at = e.Now()
				case 1:
					at = e.Now() - Time(rng.Float64()) // clamped to now
				case 2:
					at = e.Now() + Time(rng.Intn(3)) // often an instant already queued
				default:
					at = e.Now() + Time(rng.Float64())
				}
				seq++
				s := stamp{max(at, e.Now()), seq}
				want = append(want, s)
				e.At(at, func() {
					got = append(got, s)
					if depth < 4 {
						schedule(depth + 1)
					}
				})
			}
		}
		for range 8 {
			schedule(0)
		}
		e.Run()
		slices.SortFunc(want, func(a, b stamp) int {
			return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.seq, b.seq))
		})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: popped %v, want %v", trial, got, want)
		}
	}
}

// The engine copies every flow's path, so a caller may overwrite its path
// buffer as soon as the transfer has started: three processes that build
// their TransferAll pieces and Transfer paths in one shared buffer, each
// overwriting it while the others' flows are in flight, see every finish
// time of the run in which each call got fresh slices. A transfer whose
// variadic path is built at the call allocates nothing.
func TestCallerPathBufferIsReusable(t *testing.T) {
	run := func(shared bool) []Time {
		e := NewEngine()
		a, b, c := e.NewResource("a", 100), e.NewResource("b", 60), e.NewResource("c", 80)
		paths := [][]*Resource{{a, b}, {a, c}, {b, c}, {a}, {c}}
		var flat []*Resource
		var flows []Flow
		var ends []Time
		for i := range 3 {
			e.Go("p", func(p *Proc) {
				if !shared {
					flat, flows = nil, nil
				}
				flat, flows = flat[:0], flows[:0]
				for k, path := range paths[i:] {
					lo := len(flat)
					flat = append(flat, path...)
					flows = append(flows, Flow{Size: float64(100 * (i + k + 1)), Path: flat[lo:len(flat):len(flat)]})
				}
				p.TransferAll(flows)
				ends = append(ends, p.Now())
				if !shared {
					flat = nil
				}
				flat = append(flat[:0], paths[4-i]...)
				p.Transfer(50, flat...)
				ends = append(ends, p.Now())
			})
		}
		e.Run()
		return ends
	}
	fresh, shared := run(false), run(true)
	if !slices.Equal(fresh, shared) {
		t.Errorf("finish times with a shared path buffer %v, want %v", shared, fresh)
	}

	if raceEnabled {
		return // race instrumentation allocates
	}
	e := NewEngine()
	e.SetDifferentialCheck(false) // the oracle's global re-solve allocates
	a, b := e.NewResource("a", 1<<30), e.NewResource("b", 1<<30)
	done := 0
	e.Go("churn", func(p *Proc) {
		for {
			p.Transfer(64<<20, a, b)
			done++
		}
	})
	step := func() {
		for target := done + 1; done < target; {
			runTo(e, e.events[0].t)
		}
	}
	step()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("Transfer churn step allocates %.1f objects/op, want 0", allocs)
	}
}
