package sim

// Per-tenant flow grouping. A FlowGroup ties a set of related transfers
// (one tenant's in-flight requests) to a shared cap Resource: every group
// transfer crosses the cap in addition to its physical path, so
//
//   - the group's aggregate rate never exceeds the cap (a per-tenant QoS
//     ceiling enforced by the same max-min allocation as every other
//     resource), and
//   - all of a group's flows share one connected component with any
//     resources they cross, so fairness between groups falls out of the
//     incremental max-min solver with no extra machinery.
//
// The group also accounts delivered bytes and completed transfers — the
// raw material for throughput-fairness metrics (Jain's index) upstream.
// Engines that never create a group behave bit-identically to before:
// grouped flows are the only ones that carry the two extra fields.

import "fmt"

// FlowGroup is a named set of flows sharing a rate cap. Create with
// Engine.NewFlowGroup; use Proc.TransferGroup to move bytes under it.
type FlowGroup struct {
	name string
	cap  *Resource

	started   int64
	completed int64
	delivered float64
}

// FlowGroupStats is a snapshot of one group's accounting.
type FlowGroupStats struct {
	// Started and Completed count group transfers; Started-Completed is
	// the in-flight set.
	Started   int64
	Completed int64
	// DeliveredBytes sums the sizes of completed transfers.
	DeliveredBytes float64
}

// NewFlowGroup creates a flow group whose aggregate rate is capped at
// rateCap bytes/s. The cap is a real Resource (named after the group), so
// it shows up in traces, utilization summaries, and conservation checks
// like any device or link.
func (e *Engine) NewFlowGroup(name string, rateCap float64) *FlowGroup {
	return &FlowGroup{name: name, cap: NewResource(name, rateCap)}
}

// Name returns the group's name.
func (g *FlowGroup) Name() string { return g.name }

// Resource returns the group's cap resource (for tracing or for callers
// composing paths by hand).
func (g *FlowGroup) Resource() *Resource { return g.cap }

// SetRateCap changes the group's aggregate rate cap and re-solves the
// affected component. Panics on a non-positive cap (park a group by
// degrading, not zeroing, like any other resource).
func (g *FlowGroup) SetRateCap(e *Engine, bps float64) {
	if bps <= 0 {
		panic(fmt.Sprintf("sim: flow group %q rate cap must be positive, got %v", g.name, bps))
	}
	g.cap.Capacity = bps
	e.RecomputeResources(g.cap)
}

// Stats returns the group's accounting snapshot.
func (g *FlowGroup) Stats() FlowGroupStats {
	return FlowGroupStats{Started: g.started, Completed: g.completed, DeliveredBytes: g.delivered}
}

// InFlight returns the number of group transfers currently active.
func (g *FlowGroup) InFlight() int64 { return g.started - g.completed }

// TransferGroup moves size bytes across the given resources plus the
// group's cap, blocking the process for the simulated duration. A nil
// group degrades to a plain Transfer; a zero or negative size completes
// immediately (and is not counted).
func (p *Proc) TransferGroup(g *FlowGroup, size float64, resources ...*Resource) {
	if g == nil {
		p.Transfer(size, resources...)
		return
	}
	if size <= 0 {
		return
	}
	e := p.e
	e.flows.advance(e.now)
	f := e.flows.newFlow()
	path := make([]*Resource, 0, len(resources)+1)
	path = append(path, resources...)
	path = append(path, g.cap)
	f.resources = path
	f.remaining = size
	f.p = p
	f.size = size
	f.group = g
	g.started++
	if e.tracer != nil {
		e.flows.traceFlowStart(f, size)
	}
	e.flows.add(f)
	p.Park()
}

// StartTransferGroup is the non-blocking form of TransferGroup: the flow
// runs under the group's cap and done (may be nil) is invoked at
// completion.
func (e *Engine) StartTransferGroup(g *FlowGroup, size float64, done func(), resources ...*Resource) {
	if g == nil {
		e.StartTransfer(size, done, resources...)
		return
	}
	if size <= 0 {
		if done != nil {
			e.At(e.now, done)
		}
		return
	}
	e.flows.advance(e.now)
	f := e.flows.newFlow()
	path := make([]*Resource, 0, len(resources)+1)
	path = append(path, resources...)
	path = append(path, g.cap)
	f.resources = path
	f.remaining = size
	f.done = done
	f.size = size
	f.group = g
	g.started++
	if e.tracer != nil {
		e.flows.traceFlowStart(f, size)
	}
	e.flows.add(f)
}
