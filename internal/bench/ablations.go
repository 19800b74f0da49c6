package bench

import (
	"fmt"

	"univistor/internal/core"
	"univistor/internal/topology"
)

// AblationStriping isolates the adaptive-striping design choice: flush rate
// under the full Eqs. 2–6 plan, the uncorrected Eq. 5 plan (stragglers when
// servers mod OSTs ≠ 0), and the conventional stripe-all layout. The OST
// count is shrunk so the sweep reaches the servers > OSTs regime where the
// dummy-server correction matters.
func AblationStriping(o Options) *Result {
	mk := func(name, policy string) variant {
		v := uvVariant(name, tiersDRAM, func(c *core.Config) {
			c.FlushOnClose = true
			c.FlushStriping = policy
		})
		v.topo = func(tc *topology.Config) { tc.OSTs = 6 }
		return v
	}
	variants := []variant{
		mk("adaptive", "adaptive"),
		mk("eq5", "eq5"),
		mk("stripe-all", "stripe-all"),
	}
	res := &Result{ID: "abl-striping", Title: "Flush striping policy ablation (6 OSTs)",
		Metric: "aggregate flush rate (GiB/s)"}
	microSweep(res, o, variants, flushRate)
	return res
}

// AblationLocationAwareRead isolates the location-aware read service
// (§II-B4): read rate with it enabled versus every read relayed through
// the co-located server.
func AblationLocationAwareRead(o Options) *Result {
	mk := func(name string, la bool) variant {
		return uvVariant(name, tiersDRAM, func(c *core.Config) {
			c.LocationAwareRead = la
			c.FlushOnClose = false
		})
	}
	variants := []variant{mk("location-aware", true), mk("via-server", false)}
	res := &Result{ID: "abl-laread", Title: "Location-aware read service ablation",
		Metric: "aggregate read rate (GiB/s)"}
	microSweep(res, o, variants, readRate)
	return res
}

// AblationCentralMetadata isolates the distributed metadata service
// (§II-B3): write rate with range-partitioned metadata versus the naïve
// single-server map. Small segments amplify the metadata path.
func AblationCentralMetadata(o Options) *Result {
	seg := o.SegmentBytes / 8
	if seg < 1<<20 {
		seg = 1 << 20
	}
	o.SegmentBytes = seg
	mk := func(name string, central bool) variant {
		return uvVariant(name, tiersDRAM, func(c *core.Config) {
			c.CentralMetadata = central
			c.FlushOnClose = false
			// A loaded KV server: the single-server bottleneck only shows
			// once the op service saturates, which at paper scale happens
			// naturally; at sweep scale we get there via per-op cost.
			c.MetaOpTime = 5e-5
		})
	}
	variants := []variant{mk("distributed", false), mk("central", true)}
	res := &Result{ID: "abl-centralmeta", Title: "Distributed vs centralized metadata ablation",
		Metric: "aggregate write rate (GiB/s)"}
	microSweep(res, o, variants, writeRate)
	return res
}

// AblationServersPerNode sweeps the server density: one server per node
// cannot drive both NUMA sockets' ingestion; beyond two, servers crowd out
// clients.
func AblationServersPerNode(o Options) *Result {
	res := &Result{ID: "abl-servers", Title: "UniviStor servers per node ablation",
		Metric: "aggregate write rate (GiB/s)"}
	var variants []variant
	for _, spn := range []int{1, 2, 4} {
		variants = append(variants, uvVariant(fmt.Sprintf("%d/node", spn), tiersDRAM, func(c *core.Config) {
			c.ServersPerNode = spn
			c.FlushOnClose = false
		}))
	}
	microSweep(res, o, variants, writeRate)
	return res
}

// AblationSegmentSize sweeps the write-call granularity: smaller segments
// mean proportionally more metadata operations per byte.
func AblationSegmentSize(o Options) *Result {
	res := &Result{ID: "abl-segsize", Title: "Write segment size ablation",
		Metric: "aggregate write rate (GiB/s)"}
	top := o.BytesPerRank
	if max := int64(32 << 20); top > max {
		top = max // segments must fit inside one metadata range
	}
	sizes := []int64{64 << 10, 1 << 20, 4 << 20, top}
	for _, seg := range sizes {
		if seg <= 0 {
			continue
		}
		name := fmt.Sprintf("%dMiB", seg>>20)
		if seg < 1<<20 {
			name = fmt.Sprintf("%dKiB", seg>>10)
		}
		v := uvVariant(name, tiersDRAM, func(c *core.Config) {
			c.FlushOnClose = false
			// Same loaded-server regime as the metadata ablation: tiny
			// segments saturate the per-op service path.
			c.MetaOpTime = 2e-5
		})
		oo := o
		oo.SegmentBytes = seg
		microSweep(res, oo, []variant{v}, writeRate)
	}
	return res
}

// figKind sorts the runnable figures: the paper's own (Figs. 5–10), the
// design-choice ablations, and the feature figures, which run by id only
// so that -all output stays byte-identical with earlier releases.
type figKind int

const (
	paperFig figKind = iota
	ablationFig
	featureFig
)

// figures is the one table of runnable figures, in paper order.
var figures = []struct {
	id   string
	run  func(Options) *Result
	kind figKind
}{
	{"fig5a", Fig5a, paperFig}, {"fig5b", Fig5b, paperFig}, {"fig5c", Fig5c, paperFig},
	{"fig6a", Fig6a, paperFig}, {"fig6b", Fig6b, paperFig}, {"fig6c", Fig6c, paperFig},
	{"fig7", Fig7, paperFig}, {"fig8", Fig8, paperFig}, {"fig9", Fig9, paperFig}, {"fig10", Fig10, paperFig},
	{"abl-striping", AblationStriping, ablationFig}, {"abl-laread", AblationLocationAwareRead, ablationFig},
	{"abl-centralmeta", AblationCentralMetadata, ablationFig}, {"abl-servers", AblationServersPerNode, ablationFig},
	{"abl-segsize", AblationSegmentSize, ablationFig},
	{"figmeta", FigMeta, featureFig}, {"figdedup", FigDedup, featureFig},
	{"figtail", FigTail, featureFig}, {"figsplit", FigSplit, featureFig},
}

// All runs every paper figure and ablation in paper order.
func All(o Options) []*Result {
	var out []*Result
	for _, f := range figures {
		if f.kind != featureFig {
			out = append(out, f.run(o))
		}
	}
	return out
}

// ByID returns the named figure runner (e.g. "fig5a", "abl-striping").
func ByID(id string) (func(Options) *Result, bool) {
	for _, f := range figures {
		if f.id == id {
			return f.run, true
		}
	}
	return nil, false
}

// IDs lists every runnable figure id in paper order.
func IDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}
