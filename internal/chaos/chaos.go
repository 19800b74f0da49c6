package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"univistor/internal/core"
	"univistor/internal/sim"
	"univistor/internal/trace"
)

// minDegradeFrac floors every capacity cut: a zeroed resource would strand
// in-flight flows forever, so an "outage" is a 1000× slowdown, not a hang.
const minDegradeFrac = 1e-3

// Harness is one armed chaos schedule: faults registered on the engine's
// virtual clock (or the system's write counter) plus invariant sweeps at
// periodic instants, at state transitions, and at Finish.
type Harness struct {
	spec Spec
	sys  *core.System
	e    *sim.Engine
	tr   *trace.Recorder

	// pendingWrites are write-triggered crashes, ascending by trigger count.
	pendingWrites []Fault

	faults     []string
	checks     int
	seen       map[string]bool
	violations []string
	finished   bool

	// extra are additional invariant sources (e.g. the gateway's
	// admission-conservation checks) swept alongside the system's own.
	extra []func() []string
}

// AddInvariant registers an extra invariant source. Its lines are swept at
// every stage exactly like System.CheckInvariants — deterministic output,
// empty slice when clean. Register before the run starts.
func (h *Harness) AddInvariant(fn func() []string) {
	h.extra = append(h.extra, fn)
}

// Report is the harness's machine-readable outcome, embedded in tool JSON.
// Two runs with the same spec and workload produce byte-identical reports.
type Report struct {
	// Spec is the canonical form of the armed schedule.
	Spec string `json:"spec"`
	// Faults lists every injected (or skipped out-of-range) fault with its
	// firing virtual time, in firing order.
	Faults []string `json:"faults"`
	// Checks counts invariant sweeps performed.
	Checks int `json:"invariant_checks"`
	// Violations lists unique invariant violations with the stage and
	// virtual time each was first seen; empty means every sweep was clean.
	Violations []string `json:"violations"`
}

// Arm registers the spec's faults and periodic invariant sweeps against the
// system. Call before running the engine; call Finish after the run for the
// end-of-run sweep and the report. Arm takes over sys.InvariantCheck (the
// transition-sweep hook) and the system's write observer.
func Arm(sys *core.System, spec Spec) *Harness {
	h := &Harness{
		spec: spec,
		sys:  sys,
		e:    sys.W.E,
		tr:   sys.W.Trace,
		seen: map[string]bool{},
	}
	faults := append([]Fault(nil), spec.Faults...)
	faults = append(faults, h.randomFaults()...)
	sort.SliceStable(faults, func(i, j int) bool {
		if faults[i].At != faults[j].At {
			return faults[i].At < faults[j].At
		}
		return faults[i].String() < faults[j].String()
	})
	for _, f := range faults {
		if f.Kind == KindCrash && f.AfterWrites > 0 {
			h.pendingWrites = append(h.pendingWrites, f)
			continue
		}
		f := f
		h.e.At(f.At, func() { h.fire(f) })
	}
	sort.SliceStable(h.pendingWrites, func(i, j int) bool {
		return h.pendingWrites[i].AfterWrites < h.pendingWrites[j].AfterWrites
	})
	if len(h.pendingWrites) > 0 {
		sys.SetWriteObserver(func(total int64) {
			for len(h.pendingWrites) > 0 && h.pendingWrites[0].AfterWrites <= total {
				f := h.pendingWrites[0]
				h.pendingWrites = h.pendingWrites[1:]
				h.fire(f)
			}
		})
	}
	sys.InvariantCheck = h.sweep
	if spec.Check > 0 {
		// Fixed instants only: a self-rescheduling check would keep the
		// event heap non-empty forever and Engine.Run would never return.
		for t := sim.Time(spec.Check); t <= spec.Horizon; t += sim.Time(spec.Check) {
			t := t
			h.e.At(t, func() { h.sweep("periodic") })
		}
	}
	return h
}

// randomFaults derives the rand=K extra faults from the seed: stalls and
// degradations only (crashes change workload results, which would make a
// "random" smoke schedule alter the numbers under test).
func (h *Harness) randomFaults() []Fault {
	if h.spec.Rand <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(h.spec.Seed))
	cl := h.sys.W.Cluster
	classes := []string{ResNIC, ResOST, ResFabric}
	if len(cl.BB) > 0 {
		classes = append(classes, ResBB)
	}
	var out []Fault
	for i := 0; i < h.spec.Rand; i++ {
		at := sim.Time(rng.Float64() * float64(h.spec.Horizon))
		dur := sim.Duration((0.05 + 0.2*rng.Float64()) * float64(h.spec.Horizon))
		if rng.Intn(3) == 0 {
			out = append(out, Fault{
				Kind: KindStall, Index: rng.Intn(h.sys.Servers()), At: at, Dur: dur,
			})
			continue
		}
		f := Fault{
			Kind:     KindDegrade,
			Resource: classes[rng.Intn(len(classes))],
			At:       at,
			Dur:      dur,
			Frac:     0.25 + 0.65*rng.Float64(),
		}
		switch f.Resource {
		case ResNIC:
			f.Index = rng.Intn(len(cl.Nodes))
		case ResOST:
			f.Index = rng.Intn(len(cl.OSTs))
		case ResBB:
			f.Index = rng.Intn(len(cl.BB))
		}
		out = append(out, f)
	}
	return out
}

// fire injects one fault at the current virtual time.
func (h *Harness) fire(f Fault) {
	cl := h.sys.W.Cluster
	skip := func(why string) {
		h.record(fmt.Sprintf("skipped %s (%s)", f.String(), why))
	}
	switch f.Kind {
	case KindCrash:
		if f.Index >= len(cl.Nodes) {
			skip("node out of range")
			return
		}
		h.record("injected " + f.String())
		h.sys.FailNode(f.Index) // FailNode runs the transition sweep
	case KindBuddy:
		if f.Index >= len(cl.Nodes) {
			skip("node out of range")
			return
		}
		h.record("injected " + f.String())
		h.sys.FailNode(f.Index)
		if b := h.sys.Buddy(f.Index); b != f.Index {
			h.sys.FailNode(b)
		}
	case KindStall:
		if f.Index >= h.sys.Servers() {
			skip("server out of range")
			return
		}
		h.record("injected " + f.String())
		h.sys.StallServer(f.Index, h.e.Now()+sim.Time(f.Dur))
	case KindDegrade:
		r, ok := h.resolve(f)
		if !ok {
			skip("target out of range")
			return
		}
		h.record("injected " + f.String())
		h.degrade(r, f.Frac, f.Dur)
	case KindBBOutage:
		if len(cl.BB) == 0 {
			skip("no BB allocation")
			return
		}
		h.record("injected " + f.String())
		for _, b := range cl.BB {
			h.degrade(b.BW, 0, f.Dur)
		}
	case KindMetaSplit:
		// MetaSplit refuses when no plane is configured or a prior split is
		// still migrating; it runs the transition sweep itself on success,
		// and again (via SplitDone) when the migration completes.
		shard, ok := h.sys.MetaSplit()
		if !ok {
			skip("no metadata plane or split already migrating")
			return
		}
		h.record(fmt.Sprintf("injected %s (new shard %d)", f.String(), shard))
	case KindMetaCrash:
		// MetaCrashLeader refuses when no plane is configured, the shard is
		// unknown, or the crash would kill the shard's last alive replica;
		// it runs the transition sweep itself on success.
		ridx, ok := h.sys.MetaCrashLeader(f.Index)
		if !ok {
			skip("no metadata plane, unknown shard, or last alive replica")
			return
		}
		h.record("injected " + f.String())
		if f.Dur > 0 {
			h.e.After(f.Dur, func() {
				if h.sys.MetaRecover(f.Index, ridx) {
					h.tr.Instant(h.e.Now(), string(trace.CatChaos),
						fmt.Sprintf("metarecover:shard%d/replica%d", f.Index, ridx))
				}
			})
		}
	}
}

// resolve maps a degrade fault to its sim resource.
func (h *Harness) resolve(f Fault) (*sim.Resource, bool) {
	cl := h.sys.W.Cluster
	switch f.Resource {
	case ResNIC:
		if f.Index < len(cl.Nodes) {
			return cl.Nodes[f.Index].NIC, true
		}
	case ResOST:
		if f.Index < len(cl.OSTs) {
			return cl.OSTs[f.Index].BW, true
		}
	case ResBB:
		if f.Index < len(cl.BB) {
			return cl.BB[f.Index].BW, true
		}
	case ResFabric:
		return cl.Fabric, true
	}
	return nil, false
}

// degrade cuts the resource to frac of its current capacity (floored at
// minDegradeFrac) and, for a bounded window, schedules the restore. Both
// edges force an allocator recompute, targeted at the cut resource so
// only its connected component re-shares.
func (h *Harness) degrade(r *sim.Resource, frac float64, dur sim.Duration) {
	if frac < minDegradeFrac {
		frac = minDegradeFrac
	}
	orig := r.Capacity
	r.Capacity = orig * frac
	h.e.RecomputeResources(r)
	if dur > 0 {
		h.e.After(dur, func() {
			r.Capacity = orig
			h.e.RecomputeResources(r)
			h.tr.Instant(h.e.Now(), string(trace.CatChaos), "restore:"+r.Name)
		})
	}
}

// record logs one fault action to the report and the trace.
func (h *Harness) record(what string) {
	h.faults = append(h.faults, fmt.Sprintf("t=%s %s", ftoa(float64(h.e.Now())), what))
	h.tr.Instant(h.e.Now(), string(trace.CatChaos), what)
}

// sweep runs every invariant check, recording violations not seen before
// (a persistent violation reports once, at first detection).
func (h *Harness) sweep(stage string) {
	h.checks++
	h.tr.Instant(h.e.Now(), string(trace.CatChaos), "sweep:"+stage)
	viols := h.sys.CheckInvariants()
	for _, fn := range h.extra {
		viols = append(viols, fn()...)
	}
	for _, v := range viols {
		if h.seen[v] {
			continue
		}
		h.seen[v] = true
		h.violations = append(h.violations,
			fmt.Sprintf("[%s t=%s] %s", stage, ftoa(float64(h.e.Now())), v))
	}
}

// Finish runs the end-of-run sweep (once) and returns the report.
func (h *Harness) Finish() Report {
	if !h.finished {
		h.finished = true
		h.sweep("final")
	}
	return Report{
		Spec:       h.spec.String(),
		Faults:     append([]string{}, h.faults...),
		Checks:     h.checks,
		Violations: append([]string{}, h.violations...),
	}
}
