package bench

import (
	"strings"

	"univistor/internal/core"
	"univistor/internal/workloads"
)

// vpicConfig builds the VPIC kernel config scaled to the sweep options.
func vpicConfig(o Options, steps int) workloads.VPICConfig {
	cfg := workloads.DefaultVPIC(steps)
	cfg.ComputeSeconds = o.ComputeSeconds
	// Scale the particle count so one step writes BytesPerRank.
	perPropBytes := o.BytesPerRank / int64(cfg.Props)
	cfg.ParticlesPerRank = perPropBytes / cfg.BytesPerProp
	return cfg
}

// uvStepLogs sizes the per-process logs for one-file-per-step workloads.
func uvStepLogs(o Options) func(*core.Config) {
	return func(c *core.Config) {
		c.DRAMLogBytes = o.BytesPerRank + c.ChunkSize
		c.BBLogBytes = o.BytesPerRank + c.ChunkSize
	}
}

// uvWorkflowLogs is uvStepLogs with the workflow manager of §II-E on.
func uvWorkflowLogs(o Options) func(*core.Config) {
	return func(c *core.Config) {
		uvStepLogs(o)(c)
		c.Workflow = true
	}
}

// runVPIC executes the checkpointing workload and returns the paper's
// "total I/O time": the slowest rank's accumulated open+write+close time
// plus the tail of the last step's flush beyond its close (§III-C).
func runVPIC(v variant, procs int, o Options, steps int) float64 {
	st := v.stack(procs, o)
	res, err := st.VPIC(procs, o.RanksPerNode, vpicConfig(o, steps))
	st.finish(o, err)
	return float64(res.TotalIO + res.FlushTail)
}

// Fig7 regenerates Fig. 7: total I/O time of 5-time-step VPIC-IO under
// UniviStor/DRAM, UniviStor/BB, Data Elevator, and Lustre.
func Fig7(o Options) *Result {
	variants := []variant{
		uvVariant("UniviStor/DRAM", tiersDRAM, uvStepLogs(o)),
		uvVariant("UniviStor/BB", tiersBB, uvStepLogs(o)),
		{name: "DataElevator", driver: "dataelevator"},
		{name: "Lustre", driver: "lustre"},
	}
	res := &Result{ID: "fig7", Title: "Total I/O time of 5-time-step VPIC-IO",
		Metric: "total I/O time (s)"}
	sweepVariants(res, o, variants, func(v variant, procs int) float64 {
		return runVPIC(v, procs, o, o.TimeSteps5)
	})
	return res
}

// Fig8 regenerates Fig. 8: 10-time-step VPIC-IO through UniviStor with
// different storage-layer combinations — the accumulated data no longer
// fits in DRAM and spills tier by tier.
func Fig8(o Options) *Result {
	variants := []variant{
		uvVariant("UV/(DRAM+BB+Disk)", tiersBoth, uvStepLogs(o)),
		uvVariant("UV/(BB+Disk)", tiersBB, uvStepLogs(o)),
		uvVariant("UV/(Disk)", tiersNone, uvStepLogs(o)),
	}
	res := &Result{ID: "fig8", Title: "Total I/O time of 10-time-step VPIC-IO across layer combinations",
		Metric: "total I/O time (s)"}
	sweepVariants(res, o, variants, func(v variant, procs int) float64 {
		return runVPIC(v, procs, o, o.TimeSteps10)
	})
	return res
}

// runWorkflow executes the VPIC-IO → BD-CATS-IO workflow of §III-D with
// half the processes producing and half analyzing, returning the elapsed
// time from VPIC's start to BD-CATS's completion. In overlap mode both
// applications run concurrently under UniviStor's workflow management; in
// nonoverlap mode the analysis starts only after the producer exits.
func runWorkflow(v variant, procs int, o Options, steps int, overlap bool) float64 {
	st := v.stack(procs, o)
	cfg := vpicConfig(o, steps)
	// §III-D measures the workflow's data-movement pipeline: unlike the
	// §III-C checkpoint runs, there is no artificial compute phase between
	// steps, so the elapsed time is I/O-dominated.
	cfg.ComputeSeconds = 0
	writers := procs / 2
	elapsed, err := st.Workflow(writers, procs-writers, max(1, o.RanksPerNode/2), cfg, overlap)
	st.finish(o, err)
	return float64(elapsed)
}

// Fig9 regenerates Fig. 9: total time of the 5-step VPIC→BD-CATS workflow.
// UniviStor runs in overlap (concurrent, coordinated) and nonoverlap modes
// on DRAM and BB; Data Elevator and Lustre run nonoverlap.
func Fig9(o Options) *Result {
	uvDRAM := uvVariant("UV/DRAM", tiersDRAM, uvWorkflowLogs(o))
	uvBB := uvVariant("UV/BB", tiersBB, uvWorkflowLogs(o))
	de := variant{name: "DataElevator", driver: "dataelevator"}
	lus := variant{name: "Lustre", driver: "lustre"}

	as := func(v variant, name string) variant {
		v.name = name
		return v
	}
	variants := []variant{
		as(uvDRAM, "UV/DRAM Overlap"), as(uvDRAM, "UV/DRAM Nonoverlap"),
		as(uvBB, "UV/BB Overlap"), as(uvBB, "UV/BB Nonoverlap"),
		de, lus,
	}
	res := &Result{ID: "fig9", Title: "5-step VPIC→BD-CATS workflow time",
		Metric: "elapsed time (s)"}
	sweepVariants(res, o, variants, func(v variant, procs int) float64 {
		return runWorkflow(v, procs, o, o.TimeSteps5, strings.HasSuffix(v.name, " Overlap"))
	})
	return res
}

// Fig10 regenerates Fig. 10: the 10-step workflow (data exceeds DRAM)
// under different UniviStor layer combinations, overlap mode.
func Fig10(o Options) *Result {
	variants := []variant{
		uvVariant("UV/(DRAM+BB)", tiersBoth, uvWorkflowLogs(o)),
		uvVariant("UV/(BB)", tiersBB, uvWorkflowLogs(o)),
		uvVariant("UV/(Disk)", tiersNone, uvWorkflowLogs(o)),
	}
	res := &Result{ID: "fig10", Title: "10-step workflow time across layer combinations",
		Metric: "elapsed time (s)"}
	sweepVariants(res, o, variants, func(v variant, procs int) float64 {
		return runWorkflow(v, procs, o, o.TimeSteps10, true)
	})
	return res
}
