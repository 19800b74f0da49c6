// Package bench regenerates every figure of the paper's evaluation
// (§III, Figs. 5–10) plus the design-choice ablations called out in
// DESIGN.md. Each figure runner sweeps the process count, builds a fresh
// simulated cluster per data point, executes the workload through the
// appropriate driver stack, and reports the same series the paper plots.
// Stack is the one harness that builds and runs a simulated stack;
// cmd/univistor-sim runs its experiments through it too.
package bench

import (
	"fmt"
	"io"
	"sort"

	"univistor/internal/chaos"
	"univistor/internal/core"
	"univistor/internal/meta"
	"univistor/internal/topology"
	"univistor/internal/workloads"
)

// GiB converts to the units the paper plots.
const GiB = float64(1 << 30)

// Options control the sweep shape.
type Options struct {
	// Scales are the client process counts (the paper: 64…8192, ×2).
	Scales []int
	// RanksPerNode is the client density (32 on Cori Haswell).
	RanksPerNode int
	// BytesPerRank is the per-process data volume (256 MiB).
	BytesPerRank int64
	// SegmentBytes is the write/read call granularity (32 MiB, matching
	// VPIC's per-property slabs).
	SegmentBytes int64
	// ComputeSeconds is the inter-checkpoint compute phase of the
	// application kernels (60 s).
	ComputeSeconds float64
	// TimeSteps5 and TimeSteps10 are the two workload lengths of §III-C/D.
	TimeSteps5  int
	TimeSteps10 int
	// Progress, when set, receives one line per data point (see sweep).
	Progress io.Writer
	// TracePath, when set, attaches a trace recorder to every stack the
	// sweep builds and exports a Chrome trace-event JSON of each completed
	// run to this path (each run overwrites it, so the file holds the last
	// data point — the largest scale of the final series).
	TracePath string
	// Chaos, when set, is a chaos.Parse spec armed on every UniviStor stack
	// the sweep builds: seeded fault injection plus invariant sweeps.
	Chaos string
	// ChaosReport, when set alongside Chaos, observes each completed
	// stack's chaos report (the -chaos-smoke collector).
	ChaosReport func(chaos.Report)
}

// DefaultOptions reproduces the paper's sweep.
func DefaultOptions() Options {
	return Options{
		Scales:         []int{64, 128, 256, 512, 1024, 2048, 4096, 8192},
		RanksPerNode:   32,
		BytesPerRank:   256 << 20,
		SegmentBytes:   32 << 20,
		ComputeSeconds: 60,
		TimeSteps5:     5,
		TimeSteps10:    10,
	}
}

// QuickOptions is a scaled-down sweep for smoke tests and -quick runs. The
// per-rank block is an odd number of BB stripes so that rank blocks do not
// stride-collide on the tiny 2-node BB allocation.
func QuickOptions() Options {
	return Options{
		Scales:         []int{16, 32, 64},
		RanksPerNode:   8,
		BytesPerRank:   24 << 20,
		SegmentBytes:   8 << 20,
		ComputeSeconds: 5,
		TimeSteps5:     3,
		TimeSteps10:    6,
	}
}

// Point is one data point of a series.
type Point struct {
	Procs int
	Value float64
}

// Series is one line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Result is one regenerated figure.
type Result struct {
	ID     string // "fig5a", …
	Title  string
	Metric string // axis label
	Series []Series
}

// Print writes the figure as an aligned table, one row per process count.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s [%s]\n", r.ID, r.Title, r.Metric)
	procs := map[int]bool{}
	for _, s := range r.Series {
		for _, p := range s.Points {
			procs[p.Procs] = true
		}
	}
	var xs []int
	for p := range procs {
		xs = append(xs, p)
	}
	sort.Ints(xs)
	fmt.Fprintf(w, "%-8s", "procs")
	for _, s := range r.Series {
		fmt.Fprintf(w, " %20s", s.Name)
	}
	fmt.Fprintln(w)
	for _, x := range xs {
		fmt.Fprintf(w, "%-8d", x)
		for _, s := range r.Series {
			v, ok := seriesValue(s, x)
			if ok {
				fmt.Fprintf(w, " %20.3f", v)
			} else {
				fmt.Fprintf(w, " %20s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

func seriesValue(s Series, procs int) (float64, bool) {
	for _, p := range s.Points {
		if p.Procs == procs {
			return p.Value, true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Figure stacks and sweeps.

// clusterFor sizes the cluster of one figure data point: CoriCluster, with
// the DRAM tier sized to the paper's premise that the 5-step workload just
// fits and the 10-step workload overflows roughly halfway (§III-C). At
// paper scale (256 MiB/rank, 32 ranks, 10 steps) this lands on the Cori
// preset's 48 GB cache share.
func clusterFor(procs int, o Options, mutate func(*topology.Config)) topology.Config {
	tc := CoriCluster(procs, o.RanksPerNode)
	steps := float64(o.TimeSteps10)
	if steps <= 0 {
		steps = 10
	}
	tc.DRAMPerNode = int64(0.55 * steps * float64(o.BytesPerRank) * float64(o.RanksPerNode))
	if mutate != nil {
		mutate(&tc)
	}
	return tc
}

// variant describes one configuration under test.
type variant struct {
	name   string
	driver string // "univistor", "dataelevator", "lustre"
	topo   func(*topology.Config)
	core   func(*core.Config)
}

// stack builds the variant's stack for one data point, with the sweep's
// chaos spec and trace path.
func (v variant) stack(procs int, o Options) *Stack {
	cc := core.DefaultConfig()
	if v.core != nil {
		v.core(&cc)
	}
	st, err := NewStack(clusterFor(procs, o, v.topo), v.driver, cc, o.Chaos, o.TracePath)
	if err != nil {
		panic(fmt.Sprintf("bench: %s stack: %v", v.driver, err))
	}
	return st
}

// finish closes a completed run: err, the runner's error, is a harness bug
// and panics; otherwise the stack is finished and its chaos report handed
// to o.ChaosReport. Every completed run of a sweep overwrites the trace
// file.
func (st *Stack) finish(o Options, err error) {
	var rep *chaos.Report
	if err == nil {
		rep, err = st.Finish()
	}
	if err != nil {
		panic("bench: " + err.Error())
	}
	if rep != nil && o.ChaosReport != nil {
		o.ChaosReport(*rep)
	}
}

// sweep appends one series per name to res, with one point per x: point(x)
// returns that point's value in every series, in names order. Each point is
// reported as one progress line: the figure id, x and each series' quoted
// name and value.
func sweep(res *Result, o Options, names []string, xs []int, point func(x int) []float64) {
	first := len(res.Series)
	for _, name := range names {
		res.Series = append(res.Series, Series{Name: name})
	}
	series := res.Series[first:]
	for _, x := range xs {
		line := fmt.Sprintf("%s x=%d:", res.ID, x)
		for i, v := range point(x) {
			series[i].Points = append(series[i].Points, Point{Procs: x, Value: v})
			line += fmt.Sprintf(" %q=%.3f", names[i], v)
		}
		if o.Progress != nil {
			fmt.Fprintln(o.Progress, line)
		}
	}
}

// sweepVariants sweeps each variant in turn over the scales of o, one
// series per variant, measuring each point with point.
func sweepVariants(res *Result, o Options, variants []variant, point func(v variant, procs int) float64) {
	for _, v := range variants {
		sweep(res, o, []string{v.name}, o.Scales, func(procs int) []float64 {
			return []float64{point(v, procs)}
		})
	}
}

// microRate selects the rate a micro-benchmark figure plots.
type microRate int

const (
	writeRate microRate = iota
	readRate
	flushRate
)

// microSweep sweeps variants over the micro-benchmark and plots rate.
func microSweep(res *Result, o Options, variants []variant, rate microRate) {
	sweepVariants(res, o, variants, func(v variant, procs int) float64 {
		return runMicro(v, procs, o, rate)
	})
}

// runMicro executes the §III-B micro-benchmark for one variant at one
// scale and returns the aggregate rate in GiB/s: total bytes over the
// slowest rank's write or read time, or the server-side flush's bytes over
// its window.
func runMicro(v variant, procs int, o Options, rate microRate) float64 {
	st := v.stack(procs, o)
	cfg := workloads.MicroConfig{
		BytesPerRank: o.BytesPerRank,
		SegmentBytes: o.SegmentBytes,
		FileName:     "micro.h5",
	}
	m, err := st.Micro(procs, o.RanksPerNode, cfg, rate == readRate, rate == flushRate)
	st.finish(o, err)
	total := float64(procs) * float64(o.BytesPerRank)
	t := m.Write
	switch rate {
	case readRate:
		t = m.Read
	case flushRate:
		total, t = float64(m.FlushBytes), m.FlushTime
	}
	if t <= 0 {
		return 0
	}
	return total / float64(t) / GiB
}

// uvVariant builds a UniviStor variant caching on the given tiers with all
// optimizations on.
func uvVariant(name string, tiers []meta.Tier, extra func(*core.Config)) variant {
	return variant{
		name:   name,
		driver: "univistor",
		core: func(c *core.Config) {
			c.CacheTiers = tiers
			if extra != nil {
				extra(c)
			}
		},
	}
}

// tiersDRAM / tiersBB / tiersBoth are the cache configurations the figures
// compare.
var (
	tiersDRAM = []meta.Tier{meta.TierDRAM}
	tiersBB   = []meta.Tier{meta.TierBB}
	tiersBoth = []meta.Tier{meta.TierDRAM, meta.TierBB}
	tiersNone = []meta.Tier{}
)
