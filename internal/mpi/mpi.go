// Package mpi provides a simulated MPI-like runtime on the discrete-event
// engine: parallel jobs whose ranks are simulated processes placed on
// cluster nodes, a per-rank inbox, and tree-modelled collectives.
//
// This substitutes for the MPICH runtime the paper's UniviStor client and
// server are built on. It carries only what the stack calls: job launch,
// Barrier/Bcast for collective open/close, the open mode every file layer
// shares, and the server inbox (Deliver/Recv) that carries flush and
// shutdown requests.
package mpi

import (
	"fmt"
	"math"

	"univistor/internal/schedule"
	"univistor/internal/sim"
	"univistor/internal/topology"
	"univistor/internal/trace"
)

// World ties together the engine, the cluster, and the process scheduler.
// All jobs in one simulation share a World.
type World struct {
	E       *sim.Engine
	Cluster *topology.Cluster
	Sched   *schedule.Scheduler

	// Trace, when non-nil, records spans for collectives and blocking
	// receives (and is the recorder the rest of the stack — core — picks
	// up from here). Attach it with SetTrace before launching
	// jobs; nil costs one check per operation.
	Trace *trace.Recorder
}

// SetTrace attaches a recorder to the world AND to its engine (flow and
// resource instrumentation), the single plumb point for the whole stack.
func (w *World) SetTrace(rec *trace.Recorder) {
	w.Trace = rec
	if rec != nil {
		w.E.SetTracer(rec)
	} else {
		w.E.SetTracer(nil)
	}
}

// NewWorld creates a world over the cluster with the given placement policy.
func NewWorld(e *sim.Engine, c *topology.Cluster, policy schedule.Policy) *World {
	return &World{E: e, Cluster: c, Sched: schedule.New(c, policy)}
}

// Mode is the access mode of a collective file open, the one mode type
// from the MPI-IO layer down to UniviStor's client library.
type Mode int

const (
	// ReadOnly opens for reading (MPI_MODE_RDONLY).
	ReadOnly Mode = iota
	// WriteOnly opens for writing (MPI_MODE_WRONLY | MPI_MODE_CREATE).
	WriteOnly
)

// String returns the mode name.
func (m Mode) String() string {
	if m == WriteOnly {
		return "write"
	}
	return "read"
}

// Msg is one message of a rank's inbox.
type Msg struct {
	Tag     string
	Payload any
}

// Rank is one process of a launched job.
type Rank struct {
	comm *Comm
	rank int
	node int
	P    *sim.Proc
	H    *schedule.ProcHandle
	mbox *sim.Mailbox
}

// Rank returns the process's rank within its communicator.
func (r *Rank) Rank() int { return r.rank }

// Size returns the communicator size.
func (r *Rank) Size() int { return len(r.comm.ranks) }

// Node returns the compute node the rank runs on.
func (r *Rank) Node() int { return r.node }

// Comm returns the rank's communicator.
func (r *Rank) Comm() *Comm { return r.comm }

// World returns the world the rank belongs to.
func (r *Rank) World() *World { return r.comm.world }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.P.Now() }

// Comm is a communicator: the ordered set of ranks of one job.
type Comm struct {
	world   *World
	name    string
	ranks   []*Rank
	barrier *sim.Barrier
	done    sim.WaitGroup
	exited  int

	// Scratch of the in-flight Bcast.
	bcastVal   any
	resetCount int
}

// Name returns the job name the communicator was launched with.
func (c *Comm) Name() string { return c.name }

// Ranks returns the communicator's ranks in rank order.
func (c *Comm) Ranks() []*Rank { return c.ranks }

// Rank returns rank i.
func (c *Comm) Rank(i int) *Rank { return c.ranks[i] }

// LaunchOpts controls job placement.
type LaunchOpts struct {
	// RanksPerNode caps ranks placed per node; 0 means the node's core count.
	RanksPerNode int
	// Nodes lists the node IDs to use, in fill order. Empty means nodes
	// 0..ceil(n/RanksPerNode)-1.
	Nodes []int
}

// Launch starts a parallel job of n ranks running main, placing ranks
// block-wise onto nodes. It returns once all ranks are spawned (they begin
// executing when the engine runs).
func (w *World) Launch(name string, n int, main func(*Rank), opts LaunchOpts) *Comm {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: job %q needs at least one rank", name))
	}
	perNode := opts.RanksPerNode
	if perNode <= 0 {
		perNode = w.Cluster.Cfg.CoresPerNode
	}
	nodes := opts.Nodes
	if len(nodes) == 0 {
		need := (n + perNode - 1) / perNode
		if need > len(w.Cluster.Nodes) {
			panic(fmt.Sprintf("mpi: job %q needs %d nodes, cluster has %d", name, need, len(w.Cluster.Nodes)))
		}
		for i := 0; i < need; i++ {
			nodes = append(nodes, i)
		}
	}
	c := &Comm{world: w, name: name, barrier: sim.NewBarrier(n)}
	c.done.Add(n)
	for i := 0; i < n; i++ {
		node := nodes[(i/perNode)%len(nodes)]
		r := &Rank{comm: c, rank: i, node: node}
		r.H = w.Sched.Place(node, name, i)
		r.mbox = sim.NewMailbox(w.E)
		c.ranks = append(c.ranks, r)
	}
	for _, r := range c.ranks {
		r := r
		w.E.Go(fmt.Sprintf("%s[%d]", name, r.rank), func(p *sim.Proc) {
			r.P = p
			main(r)
			r.H.SetRunnable(false)
			c.exited++
			c.done.Done()
		})
	}
	return c
}

// Wait blocks the calling process until every rank of the job has returned.
func (c *Comm) Wait(p *sim.Proc) { c.done.Wait(p) }

// Done reports whether all ranks have exited.
func (c *Comm) Done() bool { return c.exited == len(c.ranks) }

// ---------------------------------------------------------------------------
// Inbox.

// Recv blocks until a message arrives in the rank's inbox and returns it.
func (r *Rank) Recv() Msg {
	sp := r.comm.world.Trace.Begin(r.P, trace.CatMPI, "recv")
	m := r.mbox.Recv(r.P).(Msg)
	sp.End(r.P.Now())
	return m
}

// Deliver injects a message into the rank's inbox without modelling any
// transfer cost; the caller charges whatever the delivery costs.
func (r *Rank) Deliver(m Msg) { r.mbox.Send(m) }

// ---------------------------------------------------------------------------
// Collectives. Costs follow binomial-tree models: ceil(log2 n) rounds, each
// costing one network latency plus the payload's NIC serialization time.

func (c *Comm) treeCost(size int64) float64 {
	n := len(c.ranks)
	if n <= 1 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(n)))
	w := c.world
	perRound := w.Cluster.Cfg.NetLatency
	if size > 0 {
		perRound += float64(size) / w.Cluster.Cfg.NICBW
	}
	return rounds * perRound
}

// Barrier blocks until every rank of the communicator has entered it, then
// charges the synchronization tree cost.
func (r *Rank) Barrier() {
	sp := r.comm.world.Trace.Begin(r.P, trace.CatMPI, "barrier")
	r.comm.barrier.Wait(r.P)
	r.P.Sleep(r.comm.treeCost(0))
	sp.End(r.P.Now())
}

// Bcast models broadcasting size bytes from root to all ranks; payload is
// returned on every rank (the root passes it, others pass nil).
//
// Bcast snapshots its result immediately after the barrier releases
// (before sleeping the tree cost): once a rank sleeps, a faster rank may
// already be contributing to the next collective round.
func (r *Rank) Bcast(root int, size int64, payload any) any {
	c := r.comm
	sp := c.world.Trace.Begin(r.P, trace.CatMPI, "bcast")
	if r.rank == root {
		c.bcastVal = payload
	}
	c.barrier.Wait(r.P)
	out := c.bcastVal
	c.collectiveDone()
	r.P.Sleep(c.treeCost(size))
	sp.End(r.P.Now())
	return out
}

// collectiveDone resets per-round collective state once every rank has
// snapshotted its result. It runs in the release window right after the
// barrier, before any rank can start the next collective.
func (c *Comm) collectiveDone() {
	c.resetCount++
	if c.resetCount == len(c.ranks) {
		c.resetCount = 0
		c.bcastVal = nil
	}
}

// Compute advances the rank's virtual time by d seconds of computation.
func (r *Rank) Compute(d float64) { r.P.Sleep(d) }
