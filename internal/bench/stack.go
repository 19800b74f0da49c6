package bench

import (
	"cmp"
	"errors"
	"fmt"
	"strings"

	"univistor/internal/bb"
	"univistor/internal/chaos"
	"univistor/internal/core"
	"univistor/internal/dataelevator"
	"univistor/internal/gateway"
	"univistor/internal/lustre"
	"univistor/internal/mpi"
	"univistor/internal/mpiio"
	"univistor/internal/schedule"
	"univistor/internal/sim"
	"univistor/internal/topology"
	"univistor/internal/trace"
	"univistor/internal/workloads"
)

// Stack is one fully built simulation stack: an engine, an MPI world on the
// simulated cluster, and one ADIO driver behind an MPI-IO environment.
// NewStack is the one place that builds a stack; Run and Finish are the one
// way to run it, and Micro, Checkpoint, VPIC, Workflow and Gateway are the
// one runner of each kernel. WaitFlush, flushStats and Disconnect are the
// only code that asks which driver is underneath.
type Stack struct {
	E   *sim.Engine
	W   *mpi.World
	Env *mpiio.Env
	UV  *mpiio.UniviStorDriver // nil unless the driver is univistor

	Rec   *trace.Recorder // nil unless a trace path was given
	Chaos *chaos.Harness  // nil unless a chaos spec was armed

	de        *dataelevator.Driver // nil unless the driver is dataelevator
	shutdown  func()               // stops the UniviStor servers; a no-op otherwise
	tracePath string
}

// CoriCluster sizes the Cori preset for procs client ranks placed
// ranksPerNode to a node. The burst-buffer allocation scales with the job,
// as DataWarp grants do, with at least a pair of BB nodes so striping is
// meaningful.
func CoriCluster(procs, ranksPerNode int) topology.Config {
	tc := topology.Cori()
	tc.Nodes = max(1, (procs+ranksPerNode-1)/ranksPerNode)
	tc.BBNodes = max(2, tc.Nodes/2)
	return tc
}

// NewStack builds a stack on a cluster of shape tc, with I/O going through
// driver: "univistor", "dataelevator" or "lustre". cc configures the
// UniviStor system, and chaosSpec, a chaos.Parse spec, is armed on it when
// non-empty; the other drivers ignore both. Ranks are placed
// interference-aware when the driver is univistor and cc.InterferenceAware
// is set, and by the OS default (CFS) otherwise. A non-empty tracePath
// attaches a trace recorder that Finish exports there.
func NewStack(tc topology.Config, driver string, cc core.Config, chaosSpec, tracePath string) (*Stack, error) {
	if err := tc.Validate(); err != nil {
		return nil, err
	}
	policy := schedule.CFS
	if driver == "univistor" && cc.InterferenceAware {
		policy = schedule.InterferenceAware
	}
	e := sim.NewEngine()
	w := mpi.NewWorld(e, topology.New(e, tc), policy)
	s := &Stack{E: e, W: w, shutdown: func() {}, tracePath: tracePath}
	if tracePath != "" {
		s.Rec = trace.New()
		w.SetTrace(s.Rec)
	}
	var d mpiio.Driver
	switch driver {
	case "univistor":
		sys, err := core.NewSystem(w, cc)
		if err != nil {
			return nil, err
		}
		s.UV = mpiio.NewUniviStorDriver(sys)
		s.shutdown = sys.Shutdown
		d = s.UV
		if chaosSpec != "" {
			spec, err := chaos.Parse(chaosSpec)
			if err != nil {
				return nil, err
			}
			s.Chaos = chaos.Arm(sys, spec)
		}
	case "dataelevator":
		bbs, err := bb.New(w.Cluster)
		if err != nil {
			return nil, err
		}
		s.de, err = dataelevator.New(w, bbs, lustre.NewFS(w.Cluster))
		if err != nil {
			return nil, err
		}
		d = s.de
	case "lustre":
		d = mpiio.NewLustreDriver(lustre.NewFS(w.Cluster))
	default:
		return nil, fmt.Errorf("unknown driver %q", driver)
	}
	env, err := mpiio.NewEnv(driver, d)
	if err != nil {
		return nil, err
	}
	s.Env = env
	return s, nil
}

// WaitFlush blocks p until the asynchronous flush of the named file to the
// PFS has finished. Lustre writes to the PFS directly, so it returns at
// once.
func (s *Stack) WaitFlush(p *sim.Proc, name string) {
	switch {
	case s.UV != nil:
		s.UV.Sys.WaitFlush(p, name)
	case s.de != nil:
		s.de.WaitFlush(p, name)
	}
}

// flushStats reports the bytes and the virtual-time window of the named
// file's flush to the PFS; ok is false when no flush was recorded.
func (s *Stack) flushStats(name string) (bytes int64, start, end sim.Time, ok bool) {
	switch {
	case s.UV != nil:
		return s.UV.Sys.FlushStats(name)
	case s.de != nil:
		return s.de.FlushStats(name)
	}
	return 0, 0, 0, false
}

// Disconnect detaches an exiting rank from the UniviStor servers; the other
// drivers hold no per-rank connection.
func (s *Stack) Disconnect(r *mpi.Rank) {
	if s.UV != nil {
		s.UV.Disconnect(r)
	}
}

// Run runs the engine to completion and returns the virtual end time. A
// non-nil wait gets a janitor process that shuts the UniviStor servers down
// once wait returns (typically once every job has exited); front-ends that
// stop the system themselves, such as the gateway, pass nil. Processes left
// blocked at the end are an error.
func (s *Stack) Run(wait func(*sim.Proc)) (sim.Time, error) {
	if wait != nil {
		s.E.Go("janitor", func(p *sim.Proc) {
			wait(p)
			s.shutdown()
		})
	}
	end := s.E.Run()
	if d := s.E.Deadlocked(); d != 0 {
		return end, fmt.Errorf("%d simulated processes deadlocked", d)
	}
	return end, nil
}

// Finish closes a completed run: the chaos harness runs its final
// invariant sweep, and the trace is exported to the stack's trace path.
// The report is nil without chaos.
func (s *Stack) Finish() (*chaos.Report, error) {
	var rep *chaos.Report
	if s.Chaos != nil {
		r := s.Chaos.Finish()
		rep = &r
	}
	if s.Rec != nil {
		if err := s.Rec.ExportChromeFile(s.tracePath); err != nil {
			return rep, fmt.Errorf("writing trace: %w", err)
		}
	}
	return rep, nil
}

// launch starts n ranks of the app name, each running body and then
// disconnecting; a rank whose body fails keeps the first error in *firstErr
// and exits without disconnecting.
func (s *Stack) launch(name string, n int, opts mpi.LaunchOpts, firstErr *error, body func(*mpi.Rank) error) *mpi.Comm {
	return s.W.Launch(name, n, func(r *mpi.Rank) {
		if err := body(r); err != nil {
			*firstErr = cmp.Or(*firstErr, err)
			return
		}
		s.Disconnect(r)
	}, opts)
}

// MicroResult is what one micro-benchmark run measured.
type MicroResult struct {
	Write, Read sim.Time // the slowest rank's write and read-back time
	ReadLost    int      // ranks whose read-back lost data to an injected fault
	End         sim.Time // virtual end of the run
	FlushBytes  int64    // bytes of the file's flush to the PFS; 0 unless flush was set
	FlushTime   sim.Time // that flush's virtual-time window; 0 unless flush was set
}

// Micro runs the §III-B micro-benchmark to completion (see Run); the caller
// finishes the stack. procs ranks, ranksPerNode to a node, each write their
// block of cfg.FileName and meet at a barrier. With read or flush set, each
// rank then waits out the file's asynchronous flush and meets the others
// again, so the flush window covers the whole flush and a read measures the
// read path of a quiesced system. With read set, each rank reads its block
// back; under chaos, a read that hits core.ErrDataLost counts as a lost
// rank. The first rank error wins over the run's own.
func (s *Stack) Micro(procs, ranksPerNode int, cfg workloads.MicroConfig, read, flush bool) (MicroResult, error) {
	var res MicroResult
	var firstErr error
	app := s.launch("app", procs, mpi.LaunchOpts{RanksPerNode: ranksPerNode}, &firstErr, func(r *mpi.Rank) error {
		ws, err := workloads.MicroWrite(r, s.Env, cfg)
		if err != nil {
			return fmt.Errorf("write: %w", err)
		}
		res.Write = max(res.Write, ws.Total())
		r.Barrier()
		if read || flush {
			s.WaitFlush(r.P, cfg.FileName)
			r.Barrier()
		}
		if read {
			rs, err := workloads.MicroRead(r, s.Env, cfg)
			switch {
			case err == nil:
				res.Read = max(res.Read, rs.Total())
			case s.Chaos != nil && errors.Is(err, core.ErrDataLost):
				res.ReadLost++
			default:
				return fmt.Errorf("read: %w", err)
			}
		}
		return nil
	})
	end, err := s.Run(app.Wait)
	res.End = end
	if bytes, start, fend, ok := s.flushStats(cfg.FileName); flush && ok && fend > start {
		res.FlushBytes, res.FlushTime = bytes, fend-start
	}
	return res, cmp.Or(firstErr, err)
}

// CheckpointResult is what one checkpoint-kernel run measured.
type CheckpointResult struct {
	TotalIO sim.Time // the slowest rank's I/O time over every step
	End     sim.Time // virtual end of the run
}

// Checkpoint runs the dedup checkpoint kernel to completion (see Run); the
// caller finishes the stack. procs ranks, ranksPerNode to a node, each run
// workloads.RunCheckpoint with cfg. As in Micro, the first rank error wins.
func (s *Stack) Checkpoint(procs, ranksPerNode int, cfg workloads.CheckpointConfig) (CheckpointResult, error) {
	var res CheckpointResult
	var firstErr error
	app := s.launch("app", procs, mpi.LaunchOpts{RanksPerNode: ranksPerNode}, &firstErr, func(r *mpi.Rank) error {
		cs, err := workloads.RunCheckpoint(r, s.Env, cfg)
		res.TotalIO = max(res.TotalIO, cs.TotalIO)
		return err
	})
	end, err := s.Run(app.Wait)
	res.End = end
	return res, cmp.Or(firstErr, err)
}

// VPICResult is what one VPIC-IO run measured.
type VPICResult struct {
	TotalIO   sim.Time // the slowest rank's open+write+close time over every step
	FlushTail sim.Time // how far the last step's flush ran past the last close
}

// VPIC runs the VPIC-IO checkpointing kernel (§III-C) to completion (see
// Run); the caller finishes the stack. procs ranks, ranksPerNode to a node,
// each run workloads.RunVPIC with cfg, then wait out the last step's flush
// between two barriers. As in Micro, the first rank error wins.
func (s *Stack) VPIC(procs, ranksPerNode int, cfg workloads.VPICConfig) (VPICResult, error) {
	var res VPICResult
	var lastClose sim.Time
	var firstErr error
	lastFile := cfg.StepFile(cfg.TimeSteps - 1)
	app := s.launch("vpic", procs, mpi.LaunchOpts{RanksPerNode: ranksPerNode}, &firstErr, func(r *mpi.Rank) error {
		vs, err := workloads.RunVPIC(r, s.Env, cfg)
		if err != nil {
			return err
		}
		res.TotalIO = max(res.TotalIO, vs.TotalIO)
		lastClose = max(lastClose, vs.LastClose)
		r.Barrier()
		s.WaitFlush(r.P, lastFile)
		r.Barrier()
		return nil
	})
	_, err := s.Run(app.Wait)
	if _, _, end, ok := s.flushStats(lastFile); ok && end > lastClose {
		res.FlushTail = end - lastClose
	}
	return res, cmp.Or(firstErr, err)
}

// Workflow runs the VPIC-IO → BD-CATS-IO workflow of §III-D to completion
// (see Run) and returns the virtual time at which the last BD-CATS rank
// finished; the caller finishes the stack. writers VPIC ranks and readers
// BD-CATS ranks share every node, ranksPerNode of each app to a node. With
// overlap both apps start at once; without it a sequencer launches BD-CATS
// once VPIC has exited. As in Micro, the first rank error wins.
func (s *Stack) Workflow(writers, readers, ranksPerNode int, cfg workloads.VPICConfig, overlap bool) (sim.Time, error) {
	nodes := make([]int, len(s.W.Cluster.Nodes))
	for i := range nodes {
		nodes[i] = i
	}
	opts := mpi.LaunchOpts{RanksPerNode: ranksPerNode, Nodes: nodes}
	bdcfg := workloads.BDCATSConfig{VPIC: cfg, WritersN: writers, Collective: true}
	var elapsed sim.Time
	var firstErr error
	launchBDCATS := func() *mpi.Comm {
		return s.launch("bdcats", readers, opts, &firstErr, func(r *mpi.Rank) error {
			if _, err := workloads.RunBDCATS(r, s.Env, bdcfg); err != nil {
				return err
			}
			elapsed = max(elapsed, r.Now())
			return nil
		})
	}
	vpic := s.launch("vpic", writers, opts, &firstErr, func(r *mpi.Rank) error {
		_, err := workloads.RunVPIC(r, s.Env, cfg)
		return err
	})
	// The janitor waits for VPIC's exit, or for the sequencer's launch of
	// BD-CATS, and then for BD-CATS.
	var bd *mpi.Comm
	launched := vpic.Wait
	if overlap {
		bd = launchBDCATS()
	} else {
		gate := &sim.Event{}
		s.E.Go("sequencer", func(p *sim.Proc) {
			vpic.Wait(p)
			bd = launchBDCATS()
			gate.Set()
		})
		launched = gate.Wait
	}
	_, err := s.Run(func(p *sim.Proc) {
		launched(p)
		bd.Wait(p)
	})
	return elapsed, cmp.Or(firstErr, err)
}

// Gateway drives the UniviStor system through the multi-tenant QoS gateway
// to completion and returns its report and the virtual end time; the
// caller finishes the stack. Under chaos the harness also sweeps the
// gateway's admission invariants. A gateway run error or an invariant the
// gateway breaks is returned as an error.
func (s *Stack) Gateway(cfg gateway.Config) (gateway.Report, sim.Time, error) {
	if s.UV == nil {
		return gateway.Report{}, 0, errors.New("the gateway requires the univistor driver")
	}
	g, err := gateway.Start(s.UV.Sys, cfg)
	if err != nil {
		return gateway.Report{}, 0, err
	}
	if s.Chaos != nil {
		s.Chaos.AddInvariant(g.CheckInvariants)
	}
	// The gateway installs its own janitor; run without one.
	end, err := s.Run(nil)
	if err != nil {
		return gateway.Report{}, end, err
	}
	if err := g.Err(); err != nil {
		return gateway.Report{}, end, fmt.Errorf("gateway: %w", err)
	}
	if viol := g.CheckInvariants(); len(viol) > 0 {
		return gateway.Report{}, end, fmt.Errorf("gateway invariants violated:\n  %s", strings.Join(viol, "\n  "))
	}
	return g.Report(), end, nil
}
