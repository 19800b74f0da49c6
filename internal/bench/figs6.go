package bench

import (
	"univistor/internal/core"
)

// fig6Variants are the four systems of Fig. 6: UniviStor caching on DRAM,
// UniviStor caching on the shared burst buffer, Data Elevator, and plain
// Lustre.
func fig6Variants(flush bool) []variant {
	uvDRAM := uvVariant("UniviStor/DRAM", tiersDRAM, func(c *core.Config) { c.FlushOnClose = flush })
	uvBB := uvVariant("UniviStor/BB", tiersBB, func(c *core.Config) { c.FlushOnClose = flush })
	de := variant{name: "DataElevator", driver: "dataelevator"}
	lus := variant{name: "Lustre", driver: "lustre"}
	if flush {
		return []variant{uvDRAM, uvBB, de}
	}
	return []variant{uvDRAM, uvBB, de, lus}
}

// Fig6a regenerates Fig. 6a: micro-benchmark write I/O rate of the four
// systems.
func Fig6a(o Options) *Result {
	res := &Result{ID: "fig6a", Title: "Write: UniviStor vs Data Elevator vs Lustre",
		Metric: "aggregate write rate (GiB/s)"}
	microSweep(res, o, fig6Variants(false), writeRate)
	return res
}

// Fig6b regenerates Fig. 6b: micro-benchmark read I/O rate of the four
// systems.
func Fig6b(o Options) *Result {
	res := &Result{ID: "fig6b", Title: "Read: UniviStor vs Data Elevator vs Lustre",
		Metric: "aggregate read rate (GiB/s)"}
	microSweep(res, o, fig6Variants(false), readRate)
	return res
}

// Fig6c regenerates Fig. 6c: flush I/O rate to Lustre of UniviStor (from
// DRAM and from BB) versus Data Elevator (from BB).
func Fig6c(o Options) *Result {
	res := &Result{ID: "fig6c", Title: "Flush to Lustre: UniviStor vs Data Elevator",
		Metric: "aggregate flush rate (GiB/s)"}
	microSweep(res, o, fig6Variants(true), flushRate)
	return res
}
