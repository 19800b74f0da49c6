package main

// Metric definitions and the aggregation of one workload's runs into the
// end-to-end and per-layer metrics.

import "fmt"

// e2eDef is one end-to-end metric, taken from every measured run. Host
// times are scaled to the reference host's speed by the run's scale.
type e2eDef struct {
	name, unit, better string
	value              func(r *runRecord) float64
}

var e2eDefs = []e2eDef{
	{"wall_s", "s", "lower", func(r *runRecord) float64 { return r.WallS * r.scale() }},
	{"sim_ops_per_s", "ops/s", "higher", func(r *runRecord) float64 { return float64(r.Ops) / (r.WallS * r.scale()) }},
	{"setup_s", "s", "lower", func(r *runRecord) float64 { return r.SetupS * r.scale() }},
	{"peak_rss_mb", "MiB", "lower", func(r *runRecord) float64 { return r.PeakRSSMB }},
	{"alloc_mb", "MiB", "lower", func(r *runRecord) float64 { return r.AllocMB }},
}

// failedFrac is reported beside the end-to-end metrics of a full run; it
// is zero when all is well, so it has no relative bound: any increase is a
// regression.
const failedFrac = "failed_frac"

// layerDef is one per-layer metric.
type layerDef struct{ name, unit string }

// layerDefs lists the per-layer metrics in report order: self time and
// share for every layer, then the layers' own counters.
var layerDefs = func() []layerDef {
	var d []layerDef
	for _, l := range layerNames {
		d = append(d, layerDef{l + ".self_s", "s"}, layerDef{l + ".share", "ratio"})
	}
	return append(d,
		layerDef{"sim.handoff.switches", "count"},
		layerDef{"sim.handoff.wait_s", "s"},
		layerDef{"sim.alloc.recomputes", "count"},
		layerDef{"sim.alloc.flows_solved", "count"},
		layerDef{"sim.alloc.components_solved", "count"},
		layerDef{"sim.alloc.merges", "count"},
		layerDef{"sim.alloc.splits", "count"},
		layerDef{"sim.alloc.parallel_batches", "count"},
		layerDef{"sim.alloc.flows_per_cpu_s", "1/s"},
		layerDef{"core.meta_ops", "count"},
		layerDef{"core.open_ops", "count"},
		layerDef{"core.spills", "count"},
		layerDef{"core.flushes", "count"},
		layerDef{"core.moved_gib", "GiB"},
		layerDef{"kvstore.ops", "count"},
		layerDef{"kvstore.us_per_op", "us"},
		layerDef{"metaplane.ops", "count"},
		layerDef{"metaplane.lease_grants", "count"},
		layerDef{"metaplane.follower_reads", "count"},
		layerDef{"metaplane.split_records", "count"},
		layerDef{"castore.dedup_hits", "count"},
		layerDef{"castore.physical_frac", "ratio"},
		layerDef{"castore.gc_batches", "count"},
		layerDef{"gateway.ops_completed", "count"},
		layerDef{"gateway.ops_rejected", "count"},
		layerDef{"gateway.admission_wait_s", "s"},
		layerDef{"trace.events", "count"},
		layerDef{"trace.record_overhead_frac", "ratio"},
		layerDef{"trace.export_s", "s"},
		layerDef{"runtime.gc.cycles", "count"},
		layerDef{"runtime.gc.cpu_s", "s"},
		layerDef{"profile_overhead_frac", "ratio"},
	)
}()

// workloadRuns holds every child run of one workload in one invocation.
type workloadRuns struct {
	Name     string      `json:"workload"`
	Setup    []runRecord `json:"setup_runs"`
	Measured []runRecord `json:"measured_runs"`
	Profile  *runRecord  `json:"profile_run,omitempty"`
	// ProfileAfter indexes the measured run the profiled run directly
	// followed.
	ProfileAfter int        `json:"profile_after"`
	Plain        *runRecord `json:"trace_plain_run,omitempty"`
	Record       *runRecord `json:"trace_record_run,omitempty"`
}

// all returns every run, in the order they were made per kind.
func (wr *workloadRuns) all() []*runRecord {
	var out []*runRecord
	for i := range wr.Setup {
		out = append(out, &wr.Setup[i])
	}
	for i := range wr.Measured {
		out = append(out, &wr.Measured[i])
	}
	for _, r := range []*runRecord{wr.Profile, wr.Plain, wr.Record} {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// verify checks every run's digest: full-scale runs against the pinned
// reference when there is one, else against the first measured run (every
// run of an invocation uses the same seed, so all must agree), and the
// traced reduced-scale run against its untraced twin. A mismatch is added
// to the run's violations. It returns the runs attempted and failed.
func (wr *workloadRuns) verify(pinned string) (attempted, failed int) {
	ref := pinned
	for _, r := range wr.Measured {
		if ref == "" && !r.failed() {
			ref = r.Digest
		}
	}
	mismatch := func(r *runRecord, want string) {
		if r != nil && r.Err == "" && want != "" && r.Digest != want {
			r.Violations = append(r.Violations, fmt.Sprintf("digest %s, want %s", r.Digest, want))
		}
	}
	for i := range wr.Measured {
		mismatch(&wr.Measured[i], ref)
	}
	mismatch(wr.Profile, ref)
	if wr.Plain != nil && !wr.Plain.failed() {
		mismatch(wr.Record, wr.Plain.Digest)
	}
	for _, r := range wr.all() {
		attempted++
		if r.failed() {
			failed++
		}
	}
	return attempted, failed
}

// problems lists the failures of every run, one line each.
func (wr *workloadRuns) problems() []string {
	var out []string
	for _, r := range wr.all() {
		if r.Err != "" {
			out = append(out, fmt.Sprintf("%s %s run: %s", wr.Name, r.Mode, r.Err))
		}
		for _, v := range r.Violations {
			out = append(out, fmt.Sprintf("%s %s run: %s", wr.Name, r.Mode, v))
		}
	}
	return out
}

// scale is the factor that turns the run's host times into seconds on the
// reference host: calRefS over the calibration before the run, or 1 for an
// uncalibrated run.
func (r *runRecord) scale() float64 {
	if r.CalS <= 0 {
		return 1
	}
	return calRefS / r.CalS
}

// speed is the median scale of the measured runs.
func (wr *workloadRuns) speed() float64 {
	var v []float64
	for i := range wr.Measured {
		if !wr.Measured[i].failed() {
			v = append(v, wr.Measured[i].scale())
		}
	}
	if len(v) == 0 {
		return 1
	}
	return median(v)
}

// endToEnd summarizes the end-to-end metrics over the successful measured
// runs; set-up time also counts the set-up-only runs.
func (wr *workloadRuns) endToEnd() map[string]summary {
	out := map[string]summary{}
	for _, d := range e2eDefs {
		var vals []float64
		runs := wr.Measured
		if d.name == "setup_s" {
			runs = append(append([]runRecord(nil), wr.Setup...), wr.Measured...)
		}
		for i := range runs {
			if !runs[i].failed() {
				vals = append(vals, d.value(&runs[i]))
			}
		}
		out[d.name] = summarize(d.unit, vals)
	}
	return out
}

// perLayer derives the per-layer metrics from the profiled run, the
// reduced-scale trace pair and the medians of the measured runs.
func (wr *workloadRuns) perLayer() map[string]float64 {
	out := map[string]float64{}
	for _, d := range layerDefs {
		out[d.name] = 0
	}
	var ok []runRecord
	for _, r := range wr.Measured {
		if !r.failed() {
			ok = append(ok, r)
		}
	}
	med := func(f func(r *runRecord) float64) float64 {
		var v []float64
		for i := range ok {
			v = append(v, f(&ok[i]))
		}
		if len(v) == 0 {
			return 0
		}
		return median(v)
	}
	out["sim.handoff.switches"] = med(func(r *runRecord) float64 { return r.SchedCount })
	out["sim.handoff.wait_s"] = med(func(r *runRecord) float64 { return r.SchedWaitS })
	out["runtime.gc.cycles"] = med(func(r *runRecord) float64 { return r.GCCycles })
	out["runtime.gc.cpu_s"] = med(func(r *runRecord) float64 { return r.GCCPUS })
	out["sim.alloc.parallel_batches"] = med(func(r *runRecord) float64 { return r.Counters["sim.alloc.parallel_batches"] })

	if p := wr.Profile; p != nil && !p.failed() {
		for k, v := range p.Counters {
			if k != "sim.alloc.parallel_batches" {
				out[k] = v
			}
		}
		total := 0.0
		for _, s := range p.Layers {
			total += s
		}
		for _, l := range layerNames {
			out[l+".self_s"] = p.Layers[l]
			if total > 0 {
				out[l+".share"] = p.Layers[l] / total
			}
		}
		if s := p.Layers[layerAlloc]; s > 0 {
			out["sim.alloc.flows_per_cpu_s"] = out["sim.alloc.flows_solved"] / s
		}
		if n := out["kvstore.ops"]; n > 0 {
			out["kvstore.us_per_op"] = p.Layers["kvstore"] / n * 1e6
		}
		if i := wr.ProfileAfter; i < len(wr.Measured) && !wr.Measured[i].failed() && wr.Measured[i].WallS > 0 {
			out["profile_overhead_frac"] = p.WallS/wr.Measured[i].WallS - 1
		}
	}
	if pl, rc := wr.Plain, wr.Record; pl != nil && rc != nil && !pl.failed() && !rc.failed() {
		out["trace.events"] = float64(rc.TraceEvents)
		out["trace.record_overhead_frac"] = rc.WallS/pl.WallS - 1
		out["trace.export_s"] = rc.ExportS
	}
	return out
}
