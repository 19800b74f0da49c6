package bench

// Chaos smoke: every figure workload at the given sweep scale with a fault
// schedule armed on each UniviStor stack and all invariants swept — the CI
// gate that the resilience paths and the bookkeeping they touch stay
// consistent under faults.

import "univistor/internal/chaos"

// DefaultSmokeSpec is the schedule -chaos-smoke arms when none is given:
// non-destructive faults only (stalls and degradations — crashes would
// change the figure workloads' results), periodic sweeps through the
// window every workload phase crosses, plus three seeded random faults.
const DefaultSmokeSpec = "seed=1,check=0.5,horizon=20,rand=3," +
	"stall=0@1+0.5,degrade=fabric:0.5@2+2,degrade=nic:0:0.5@4+2,degrade=ost:0:0.25@6+3"

// SmokeResult is one figure's chaos outcome.
type SmokeResult struct {
	Fig     string
	Reports []chaos.Report
}

// Totals sums the figure's stacks: injected faults, invariant sweeps and
// invariant violations.
func (s SmokeResult) Totals() (faults, sweeps, violations int) {
	for _, r := range s.Reports {
		faults += len(r.Faults)
		sweeps += r.Checks
		violations += len(r.Violations)
	}
	return faults, sweeps, violations
}

// ChaosSmoke runs every paper figure with the chaos schedule armed and
// returns the per-figure reports. The figure results themselves are
// discarded — the smoke's output is whether every invariant held on every
// stack of every workload.
func ChaosSmoke(o Options, spec string) ([]SmokeResult, error) {
	if spec == "" {
		spec = DefaultSmokeSpec
	}
	if _, err := chaos.Parse(spec); err != nil {
		return nil, err
	}
	o.Chaos = spec
	var out []SmokeResult
	// The smoke covers the paper figures; ablations rebuild the same
	// stacks under different configs and add little fault-path coverage
	// for their cost.
	for _, f := range figures {
		if f.kind != paperFig {
			continue
		}
		var reports []chaos.Report
		o.ChaosReport = func(r chaos.Report) { reports = append(reports, r) }
		o.progress("chaos-smoke %s", f.id)
		f.run(o)
		out = append(out, SmokeResult{Fig: f.id, Reports: reports})
	}
	return out, nil
}
