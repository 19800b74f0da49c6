package main

// The four fixed scenarios, built only through the simulator's public
// constructors. Each build function returns a scenario whose engine is
// ready to Run; the caller times the build as set-up and Run as the
// measured work.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"univistor/internal/castore"
	"univistor/internal/core"
	"univistor/internal/gateway"
	"univistor/internal/meta"
	"univistor/internal/metaplane"
	"univistor/internal/mpi"
	"univistor/internal/mpiio"
	"univistor/internal/schedule"
	"univistor/internal/sim"
	"univistor/internal/topology"
	"univistor/internal/trace"
	"univistor/internal/workloads"
)

// The quick data sizes of the paper-figure sweeps (univibench -quick).
const (
	ranksPerNode = 8
	bytesPerRank = 24 << 20
	quickSteps10 = 6 // sizes the DRAM tier, as the figure sweeps do
	spillCompute = 5 // seconds of compute between spill checkpoints
)

// workload is one benchmark scenario. build makes it at 1/div of full
// scale; rec, when non-nil, records a program trace.
type workload struct {
	name  string
	build func(seed int64, div int, rec *trace.Recorder) (*scenario, error)
}

// workloadList is the benchmark's fixed workload set, in run order. Why
// each exists is recorded in BENCHMARK.json and benchmark/README.md.
var workloadList = []workload{
	{"workflow", buildWorkflow},
	{"spill", buildSpill},
	{"gateway", buildGateway},
	{"ckpt", buildCkpt},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scenario is one built simulation, ready to Run.
type scenario struct {
	e   *sim.Engine
	sys *core.System
	gw  *gateway.Gateway // nil unless the gateway workload

	// kernelOps is the number of write/read calls the application kernels
	// issue (zero for the gateway, whose Report counts its own ops).
	kernelOps int64
	// check adds workload-specific output checks after Run.
	check func() []string
}

// scaled divides a full-scale count by div, keeping at least lo.
func scaled(n, div, lo int) int {
	n /= div
	if n < lo {
		n = lo
	}
	return n
}

// cluster sizes a Cori-flavoured cluster for procs client ranks by the
// figure sweeps' rules: 8 ranks per node, a BB allocation of half the nodes
// (at least 2), and a DRAM tier that fits the 5-step workload but not the
// 10-step one.
func cluster(procs int) topology.Config {
	tc := topology.Cori()
	tc.Nodes = max(1, (procs+ranksPerNode-1)/ranksPerNode)
	tc.BBNodes = max(2, tc.Nodes/2)
	fill := 0.55
	tc.DRAMPerNode = int64(fill * quickSteps10 * bytesPerRank * ranksPerNode)
	return tc
}

// newSystem builds engine, world and UniviStor system on the cluster, with
// the solver pool at the benchmark's worker count.
func newSystem(tc topology.Config, cc core.Config, rec *trace.Recorder) (*sim.Engine, *mpi.World, *core.System, error) {
	e := sim.NewEngine()
	e.SetWorkers(benchProcs())
	w := mpi.NewWorld(e, topology.New(e, tc), schedule.InterferenceAware)
	if rec != nil {
		w.SetTrace(rec)
	}
	cc.InterferenceAware = true
	sys, err := core.NewSystem(w, cc)
	return e, w, sys, err
}

// vpicConfig scales the VPIC kernel so one step writes bytesPerRank.
func vpicConfig(steps int, compute float64) workloads.VPICConfig {
	cfg := workloads.DefaultVPIC(steps)
	cfg.ComputeSeconds = compute
	cfg.ParticlesPerRank = bytesPerRank / int64(cfg.Props) / cfg.BytesPerProp
	return cfg
}

// stepLogs sizes the per-process logs for one-file-per-step workloads.
func stepLogs(cc *core.Config) {
	cc.DRAMLogBytes = bytesPerRank + cc.ChunkSize
	cc.BBLogBytes = bytesPerRank + cc.ChunkSize
}

// janitor shuts the servers down once every job has exited.
func janitor(e *sim.Engine, sys *core.System, jobs ...*mpi.Comm) {
	e.Go("janitor", func(p *sim.Proc) {
		for _, j := range jobs {
			j.Wait(p)
		}
		sys.Shutdown()
	})
}

// firstErr keeps the first error a rank reports.
type firstErr struct{ err error }

func (f *firstErr) set(err error) {
	if f.err == nil && err != nil {
		f.err = err
	}
}

func (f *firstErr) violations() []string {
	if f.err != nil {
		return []string{f.err.Error()}
	}
	return nil
}

// buildWorkflow is Fig. 9 "UV/DRAM Overlap": half the ranks run VPIC, half
// BD-CATS reading each step as it completes, with no compute phase.
func buildWorkflow(_ int64, div int, rec *trace.Recorder) (*scenario, error) {
	procs := scaled(4096, div, 2*ranksPerNode)
	cc := core.DefaultConfig()
	cc.CacheTiers = []meta.Tier{meta.TierDRAM}
	stepLogs(&cc)
	cc.Workflow = true
	e, w, sys, err := newSystem(cluster(procs), cc, rec)
	if err != nil {
		return nil, err
	}
	uv := mpiio.NewUniviStorDriver(sys)
	env, err := mpiio.NewEnv("univistor", uv)
	if err != nil {
		return nil, err
	}
	writers, readers := procs/2, procs-procs/2
	nodes := make([]int, len(w.Cluster.Nodes))
	for i := range nodes {
		nodes[i] = i
	}
	const steps = 3
	cfg := vpicConfig(steps, 0)
	bd := workloads.BDCATSConfig{VPIC: cfg, WritersN: writers, Collective: true}
	var fail firstErr
	opts := mpi.LaunchOpts{RanksPerNode: ranksPerNode / 2, Nodes: nodes}
	vpic := w.Launch("vpic", writers, func(r *mpi.Rank) {
		_, err := workloads.RunVPIC(r, env, cfg)
		fail.set(err)
		uv.Disconnect(r)
	}, opts)
	bdcats := w.Launch("bdcats", readers, func(r *mpi.Rank) {
		_, err := workloads.RunBDCATS(r, env, bd)
		fail.set(err)
		uv.Disconnect(r)
	}, opts)
	janitor(e, sys, vpic, bdcats)
	total := int64(writers) * cfg.BytesPerRankStep() * steps
	return &scenario{
		e: e, sys: sys,
		kernelOps: int64(writers+readers) * steps * int64(cfg.Props),
		check: func() []string {
			out := fail.violations()
			// The totals also count the HDF5 container metadata.
			st := sys.Stats()
			if got := st.TotalBytesWritten(); got < total {
				out = append(out, fmt.Sprintf("workflow: wrote %d bytes, want at least %d", got, total))
			}
			if got := st.TotalBytesRead(); got < total {
				out = append(out, fmt.Sprintf("workflow: read %d bytes, want at least %d", got, total))
			}
			return out
		},
	}, nil
}

// buildSpill is Fig. 8 "UV/(DRAM+BB+Disk)": a 6-step VPIC checkpoint whose
// data outgrows DRAM and spills to the burst buffer and then the PFS; every
// rank waits for the last step's flush before exiting.
func buildSpill(_ int64, div int, rec *trace.Recorder) (*scenario, error) {
	procs := scaled(2048, div, ranksPerNode)
	cc := core.DefaultConfig()
	cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
	stepLogs(&cc)
	e, w, sys, err := newSystem(cluster(procs), cc, rec)
	if err != nil {
		return nil, err
	}
	uv := mpiio.NewUniviStorDriver(sys)
	env, err := mpiio.NewEnv("univistor", uv)
	if err != nil {
		return nil, err
	}
	cfg := vpicConfig(quickSteps10, spillCompute)
	last := cfg.StepFile(quickSteps10 - 1)
	var fail firstErr
	app := w.Launch("vpic", procs, func(r *mpi.Rank) {
		_, err := workloads.RunVPIC(r, env, cfg)
		fail.set(err)
		r.Barrier()
		sys.WaitFlush(r.P, last)
		r.Barrier()
		uv.Disconnect(r)
	}, mpi.LaunchOpts{RanksPerNode: ranksPerNode})
	janitor(e, sys, app)
	total := int64(procs) * cfg.BytesPerRankStep() * quickSteps10
	return &scenario{
		e: e, sys: sys,
		kernelOps: int64(procs) * quickSteps10 * int64(cfg.Props),
		check: func() []string {
			out := fail.violations()
			st := sys.Stats()
			written := st.TotalBytesWritten()
			if written < total {
				out = append(out, fmt.Sprintf("spill: wrote %d bytes, want at least %d", written, total))
			}
			if st.BytesFlushed != written {
				out = append(out, fmt.Sprintf("spill: flushed %d of %d written bytes", st.BytesFlushed, written))
			}
			if st.Spills == 0 || st.BytesWritten[meta.TierBB] == 0 {
				out = append(out, "spill: nothing spilled past DRAM to the burst buffer")
			}
			return out
		},
	}, nil
}

// metaPlaneConfig turns on the replicated metadata plane the gateway and
// checkpoint workloads run against.
func metaPlaneConfig(cc *core.Config) {
	cc.MetaShards = 4
	cc.MetaReplicas = 3
}

// buildGateway drives 256 tenants open-loop at 400 ops/s each for 4 virtual
// seconds through the gateway (QoS off), on a 4-shard R=3 metadata plane
// with leased follower reads and one online split at t=1.5 s.
func buildGateway(seed int64, div int, rec *trace.Recorder) (*scenario, error) {
	tenants := scaled(256, div, 2)
	cc := core.DefaultConfig()
	metaPlaneConfig(&cc)
	cc.MetaFollowerReads = true
	e, _, sys, err := newSystem(cluster(tenants), cc, rec)
	if err != nil {
		return nil, err
	}
	gc := gateway.DefaultConfig()
	gc.Tenants = tenants
	gc.OpBytes = 16 << 10
	gc.OpsPerTenant = 0
	gc.ArrivalRate = 400
	gc.DurationSeconds = 4
	gc.Seed = seed
	g, err := gateway.Start(sys, gc)
	if err != nil {
		return nil, err
	}
	e.Go("meta-split", func(p *sim.Proc) {
		p.Sleep(1.5)
		sys.MetaSplit() // a refused start shows in the split check below
	})
	return &scenario{
		e: e, sys: sys, gw: g,
		check: func() []string {
			var out []string
			if err := g.Err(); err != nil {
				out = append(out, "gateway: "+err.Error())
			}
			rep := g.Report()
			if rep.Rejected != 0 || rep.Completed != rep.Issued || rep.Completed == 0 {
				out = append(out, fmt.Sprintf("gateway: issued %d, completed %d, rejected %d; want all completed",
					rep.Issued, rep.Completed, rep.Rejected))
			}
			if ps := sys.Plane().Stats(); ps.Splits != 1 || ps.Shards != 5 {
				out = append(out, fmt.Sprintf("gateway: online split did not complete (%d splits, %d shards)",
					ps.Splits, ps.Shards))
			}
			return out
		},
	}, nil
}

// Checkpoint kernel shape.
const (
	ckptSegments  = 16
	ckptSegBytes  = 1 << 20
	ckptSteps     = 10
	ckptChange    = 0.10
	ckptRetention = 2
)

// buildCkpt runs the dedup checkpoint kernel: full checkpoints of which
// about 10% changed, flushed through the content-addressed store, with the
// two newest steps retained and the rest deleted and garbage-collected.
func buildCkpt(seed int64, div int, rec *trace.Recorder) (*scenario, error) {
	procs := scaled(256, div, 1)
	cc := core.DefaultConfig()
	cc.CacheTiers = []meta.Tier{meta.TierDRAM}
	cc.Dedup = true
	cc.DedupBlockBytes = ckptSegBytes
	metaPlaneConfig(&cc)
	e, w, sys, err := newSystem(cluster(procs), cc, rec)
	if err != nil {
		return nil, err
	}
	uv := mpiio.NewUniviStorDriver(sys)
	env, err := mpiio.NewEnv("univistor", uv)
	if err != nil {
		return nil, err
	}
	cfg := workloads.CheckpointConfig{
		SegmentsPerRank: ckptSegments,
		SegmentBytes:    ckptSegBytes,
		TimeSteps:       ckptSteps,
		ChangeRate:      ckptChange,
		Seed:            seed,
		Retention:       ckptRetention,
	}
	var fail firstErr
	app := w.Launch("ckpt", procs, func(r *mpi.Rank) {
		_, err := workloads.RunCheckpoint(r, env, cfg)
		fail.set(err)
		uv.Disconnect(r)
	}, mpi.LaunchOpts{RanksPerNode: ranksPerNode})
	janitor(e, sys, app)
	logical := int64(procs) * cfg.BytesPerRankStep() * ckptSteps
	return &scenario{
		e: e, sys: sys,
		kernelOps: int64(procs) * ckptSteps * ckptSegments,
		check: func() []string {
			out := fail.violations()
			st := sys.Stats()
			// A flush counts what its file still caches when it completes,
			// so a step retired before then counts short.
			if st.BytesFlushed <= 0 || st.BytesFlushed > logical {
				out = append(out, fmt.Sprintf("ckpt: flushed %d logical bytes, want (0, %d]", st.BytesFlushed, logical))
			}
			if st.BytesFlushedPhysical <= 0 || st.BytesFlushedPhysical >= st.BytesFlushed {
				out = append(out, fmt.Sprintf("ckpt: physical flush %d bytes not below logical %d",
					st.BytesFlushedPhysical, st.BytesFlushed))
			}
			if cs := sys.CASStats(); cs == nil || cs.DedupHits == 0 || cs.GCBatches == 0 {
				out = append(out, "ckpt: dedup never hit or GC never ran")
			}
			return out
		},
	}, nil
}

// outcome is the virtual-time result a run's digest covers. Solver-work
// and worker-pool counters are left out: they may change with a correct
// optimisation.
type outcome struct {
	End     float64          `json:"virtual_end_s"`
	Stats   core.Stats       `json:"stats"`
	Gateway *gateway.Report  `json:"gateway,omitempty"`
	Plane   *metaplane.Stats `json:"plane,omitempty"`
	CAS     *castore.Stats   `json:"cas,omitempty"`
}

// digest hashes the run's virtual-time outcome.
func (sc *scenario) digest(end sim.Time) (string, error) {
	o := outcome{End: float64(end), Stats: sc.sys.Stats(), CAS: sc.sys.CASStats()}
	if sc.gw != nil {
		rep := sc.gw.Report()
		o.Gateway = &rep
	}
	if pl := sc.sys.Plane(); pl != nil {
		ps := pl.Stats()
		o.Plane = &ps
	}
	b, err := json.Marshal(o)
	if err != nil {
		return "", fmt.Errorf("encoding outcome: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// violations runs every invariant sweep and output check after Run.
func (sc *scenario) violations() []string {
	var out []string
	if d := sc.e.Deadlocked(); d != 0 {
		out = append(out, fmt.Sprintf("%d simulated processes deadlocked", d))
	}
	out = append(out, sc.sys.CheckInvariants()...)
	if sc.gw != nil {
		out = append(out, sc.gw.CheckInvariants()...)
	}
	out = append(out, sc.check()...)
	sort.Strings(out)
	return out
}

// ops is the number of client I/O operations the run completed.
func (sc *scenario) ops() int64 {
	if sc.gw != nil {
		return sc.gw.Report().Completed
	}
	return sc.kernelOps
}
