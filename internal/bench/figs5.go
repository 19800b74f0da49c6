package bench

import "univistor/internal/core"

// fig5Variants are the optimization on/off combinations of Fig. 5a/5b:
// writes/reads to the distributed DRAM space with Interference-Aware
// scheduling (IA) and Collective Open/Close (COC) toggled.
func fig5Variants() []variant {
	mk := func(name string, ia, coc bool) variant {
		return uvVariant(name, tiersDRAM, func(c *core.Config) {
			c.InterferenceAware = ia
			c.CollectiveOpenClose = coc
			c.FlushOnClose = false
		})
	}
	return []variant{
		mk("IA+COC", true, true),
		mk("noIA", false, true),
		mk("noCOC", true, false),
		mk("neither", false, false),
	}
}

// Fig5a regenerates Fig. 5a: write I/O rate to distributed DRAM under the
// four IA/COC combinations.
func Fig5a(o Options) *Result {
	res := &Result{ID: "fig5a", Title: "Write to distributed DRAM with IA/COC on/off",
		Metric: "aggregate write rate (GiB/s)"}
	microSweep(res, o, fig5Variants(), writeRate)
	return res
}

// Fig5b regenerates Fig. 5b: read I/O rate from distributed DRAM under the
// four IA/COC combinations.
func Fig5b(o Options) *Result {
	res := &Result{ID: "fig5b", Title: "Read from distributed DRAM with IA/COC on/off",
		Metric: "aggregate read rate (GiB/s)"}
	microSweep(res, o, fig5Variants(), readRate)
	return res
}

// Fig5c regenerates Fig. 5c: server-side flush rate from distributed DRAM
// to Lustre with Interference-Aware scheduling (IA) and ADaPTive striping
// (ADPT) toggled.
func Fig5c(o Options) *Result {
	mk := func(name string, ia bool, layout string) variant {
		return uvVariant(name, tiersDRAM, func(c *core.Config) {
			c.InterferenceAware = ia
			c.FlushStriping = layout
			c.FlushOnClose = true
		})
	}
	variants := []variant{
		mk("IA+ADPT", true, "adaptive"),
		mk("noIA", false, "adaptive"),
		mk("noADPT", true, "stripe-all"),
	}
	res := &Result{ID: "fig5c", Title: "Flush DRAM→Lustre with IA/ADPT on/off",
		Metric: "aggregate flush rate (GiB/s)"}
	microSweep(res, o, variants, flushRate)
	return res
}
