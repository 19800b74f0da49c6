// Package bench regenerates every figure of the paper's evaluation
// (§III, Figs. 5–10) plus the design-choice ablations called out in
// DESIGN.md. Each figure runner sweeps the process count, builds a fresh
// simulated cluster per data point, executes the workload through the
// appropriate driver stack, and reports the same series the paper plots.
package bench

import (
	"fmt"
	"io"
	"sort"

	"univistor/internal/bb"
	"univistor/internal/chaos"
	"univistor/internal/core"
	"univistor/internal/dataelevator"
	"univistor/internal/lustre"
	"univistor/internal/meta"
	"univistor/internal/mpi"
	"univistor/internal/mpiio"
	"univistor/internal/schedule"
	"univistor/internal/sim"
	"univistor/internal/topology"
	"univistor/internal/trace"
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
	// Verbose prints a progress line per data point to Progress.
	Verbose  bool
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

func (o Options) progress(format string, args ...any) {
	if o.Verbose && o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
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

// SpeedupOver returns, per process count, series a's value divided by
// series b's (used by EXPERIMENTS.md to report paper-vs-measured ratios).
func (r *Result) SpeedupOver(a, b string) []Point {
	var sa, sb *Series
	for i := range r.Series {
		if r.Series[i].Name == a {
			sa = &r.Series[i]
		}
		if r.Series[i].Name == b {
			sb = &r.Series[i]
		}
	}
	if sa == nil || sb == nil {
		return nil
	}
	var out []Point
	for _, p := range sa.Points {
		if v, ok := seriesValue(*sb, p.Procs); ok && v != 0 {
			out = append(out, Point{Procs: p.Procs, Value: p.Value / v})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Cluster and stack construction.

// clusterFor sizes a Cori-flavoured cluster for the given client count.
func clusterFor(procs int, o Options, mutate func(*topology.Config)) topology.Config {
	tc := topology.Cori()
	nodes := (procs + o.RanksPerNode - 1) / o.RanksPerNode
	if nodes < 1 {
		nodes = 1
	}
	tc.Nodes = nodes
	// The BB allocation scales with the job, as DataWarp grants do; keep
	// at least a pair of BB nodes so striping is meaningful.
	tc.BBNodes = nodes / 2
	if tc.BBNodes < 2 {
		tc.BBNodes = 2
	}
	// Size the DRAM tier to the paper's premise: the 5-step workload just
	// fits, the 10-step workload overflows roughly halfway (§III-C). At
	// paper scale (256 MiB/rank, 32 ranks, 10 steps) this lands on the
	// Cori preset's 48 GB cache share.
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

// stack is one fully built simulation stack.
type stack struct {
	E   *sim.Engine
	W   *mpi.World
	Env *mpiio.Env
	UV  *mpiio.UniviStorDriver // nil unless driver == univistor
	DE  *dataelevator.Driver   // nil unless driver == dataelevator
	LU  *mpiio.LustreDriver    // nil unless driver == lustre

	Rec      *trace.Recorder // nil unless Options.TracePath is set
	TraceOut string          // export destination for Rec

	Chaos   *chaos.Harness // nil unless Options.Chaos is set (UV stacks only)
	onChaos func(chaos.Report)
}

// variant describes one configuration under test.
type variant struct {
	name   string
	driver string // "univistor", "dataelevator", "lustre"
	policy schedule.Policy
	topo   func(*topology.Config)
	core   func(*core.Config)
	de     func(*dataelevator.Config)
}

func buildStack(v variant, procs int, o Options) *stack {
	tc := clusterFor(procs, o, v.topo)
	e := sim.NewEngine()
	w := mpi.NewWorld(e, topology.New(e, tc), v.policy)
	st := &stack{E: e, W: w}
	if o.TracePath != "" {
		st.Rec = trace.New()
		st.TraceOut = o.TracePath
		w.SetTrace(st.Rec)
	}
	switch v.driver {
	case "univistor":
		cc := core.DefaultConfig()
		cc.InterferenceAware = v.policy == schedule.InterferenceAware
		if v.core != nil {
			v.core(&cc)
		}
		sys, err := core.NewSystem(w, cc)
		if err != nil {
			panic(fmt.Sprintf("bench: univistor system: %v", err))
		}
		st.UV = mpiio.NewUniviStorDriver(sys)
		st.Env, err = mpiio.NewEnv("univistor", st.UV)
		if err != nil {
			panic(err)
		}
		if o.Chaos != "" {
			spec, err := chaos.Parse(o.Chaos)
			if err != nil {
				panic(fmt.Sprintf("bench: chaos spec: %v", err))
			}
			st.Chaos = chaos.Arm(sys, spec)
			st.onChaos = o.ChaosReport
		}
	case "dataelevator":
		bbs, err := bb.New(w.Cluster)
		if err != nil {
			panic(fmt.Sprintf("bench: DE needs BB nodes: %v", err))
		}
		dc := dataelevator.DefaultConfig()
		if v.de != nil {
			v.de(&dc)
		}
		st.DE, err = dataelevator.New(w, bbs, lustre.NewFS(w.Cluster), dc)
		if err != nil {
			panic(err)
		}
		st.Env, err = mpiio.NewEnv("dataelevator", st.DE)
		if err != nil {
			panic(err)
		}
	case "lustre":
		st.LU = mpiio.NewLustreDriver(lustre.NewFS(w.Cluster), tc.SharedFileEff)
		var err error
		st.Env, err = mpiio.NewEnv("lustre", st.LU)
		if err != nil {
			panic(err)
		}
	default:
		panic(fmt.Sprintf("bench: unknown driver %q", v.driver))
	}
	return st
}

// finish runs the engine to completion, shutting UniviStor servers down
// after the given jobs exit, and panics on deadlock (a harness bug).
func (st *stack) finish(jobs ...*mpi.Comm) {
	st.E.Go("janitor", func(p *sim.Proc) {
		for _, j := range jobs {
			j.Wait(p)
		}
		if st.UV != nil {
			st.UV.Sys.Shutdown()
		}
	})
	st.drain()
}

// drain runs the engine to completion without installing a janitor — for
// front-ends (the gateway) that manage system shutdown themselves — and
// performs the same post-run bookkeeping as finish.
func (st *stack) drain() {
	st.E.Run()
	if d := st.E.Deadlocked(); d != 0 {
		panic(fmt.Sprintf("bench: %d processes deadlocked", d))
	}
	if st.Chaos != nil {
		rep := st.Chaos.Finish()
		if st.onChaos != nil {
			st.onChaos(rep)
		}
	}
	st.exportTrace()
}

// exportTrace writes the run's Chrome trace to Options.TracePath (a no-op
// without a recorder). Every completed run of a sweep overwrites the file.
func (st *stack) exportTrace() {
	if st.Rec == nil || st.TraceOut == "" {
		return
	}
	if err := st.Rec.ExportChromeFile(st.TraceOut); err != nil {
		panic(fmt.Sprintf("bench: exporting trace: %v", err))
	}
}

// uvVariant builds a UniviStor variant caching on the given tiers with all
// optimizations on.
func uvVariant(name string, tiers []meta.Tier, extra func(*core.Config)) variant {
	return variant{
		name:   name,
		driver: "univistor",
		policy: schedule.InterferenceAware,
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
