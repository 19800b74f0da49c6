// Package mpi provides a simulated MPI-like runtime on the discrete-event
// engine: parallel jobs whose ranks are simulated processes placed on
// cluster nodes, with point-to-point messaging over the modelled
// interconnect and tree-modelled collectives.
//
// This substitutes for the MPICH runtime the paper's UniviStor client and
// server are built on. The interfaces mirror the MPI operations UniviStor
// actually uses — point-to-point sends between clients and servers,
// Barrier/Bcast for collective open/close, and job launch/teardown hooks
// standing in for MPI_Init/MPI_Finalize connection management.
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

	// Trace, when non-nil, records spans for collectives, sends, and
	// blocking receives (and is the recorder the rest of the stack — core,
	// tier — picks up from here). Attach it with SetTrace before launching
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

// Msg is a point-to-point message.
type Msg struct {
	Src     int
	Tag     string
	Size    int64
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
	held []Msg // messages deferred by a filtered receive
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
	onExit  []func(*Rank)
	exited  int
	commState
}

// commState carries scratch values used by in-flight collectives.
type commState struct {
	bcastVal    any
	gatherVals  []any
	reduceVal   float64
	reducePhase int
	resetCount  int
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
	// OnExit hooks run (in the rank's process context) after main returns,
	// standing in for MPI_Finalize-time actions.
	OnExit []func(*Rank)
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
	c := &Comm{world: w, name: name, barrier: sim.NewBarrier(n), onExit: opts.OnExit}
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
			for _, hook := range c.onExit {
				hook(r)
			}
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
// Point-to-point.

// Send transfers a message of the given size to rank dst of the same
// communicator, blocking the sender for the network latency plus the
// bandwidth-shared transfer time.
func (r *Rank) Send(dst int, tag string, size int64, payload any) {
	r.SendTo(r.comm.ranks[dst], tag, size, payload)
}

// SendTo is Send across communicators (client→server traffic).
func (r *Rank) SendTo(dst *Rank, tag string, size int64, payload any) {
	w := r.comm.world
	sp := w.Trace.Begin(r.P, trace.CatMPI, "send")
	r.P.Sleep(w.Cluster.Cfg.NetLatency)
	path := w.Cluster.NetPath(r.node, dst.node)
	if len(path) > 0 && size > 0 {
		r.P.Transfer(float64(size), path...)
	}
	dst.mbox.Send(Msg{Src: r.rank, Tag: tag, Size: size, Payload: payload})
	sp.End(r.P.Now())
}

// Recv blocks until any message arrives and returns it, preferring messages
// deferred by earlier filtered receives.
func (r *Rank) Recv() Msg {
	if len(r.held) > 0 {
		m := r.held[0]
		r.held = r.held[1:]
		return m
	}
	sp := r.comm.world.Trace.Begin(r.P, trace.CatMPI, "recv")
	m := r.mbox.Recv(r.P).(Msg)
	sp.End(r.P.Now())
	return m
}

// RecvTag blocks until a message with the given tag arrives, holding back
// (not discarding) other messages.
func (r *Rank) RecvTag(tag string) Msg {
	for i, m := range r.held {
		if m.Tag == tag {
			r.held = append(r.held[:i], r.held[i+1:]...)
			return m
		}
	}
	sp := r.comm.world.Trace.Begin(r.P, trace.CatMPI, "recv")
	for {
		m := r.mbox.Recv(r.P).(Msg)
		if m.Tag == tag {
			sp.End(r.P.Now())
			return m
		}
		r.held = append(r.held, m)
	}
}

// Deliver injects a message into the rank's inbox without modelling any
// transfer cost. It is the escape hatch for co-located shared-memory
// delivery and for test fixtures.
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
// All collectives snapshot their result immediately after the barrier
// releases (before sleeping the tree cost): once a rank sleeps, a faster
// rank may already be contributing to the next collective round.
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

// Gather models gathering size bytes from every rank to root. It returns,
// on the root only, the slice of contributed payloads in rank order; other
// ranks get nil.
func (r *Rank) Gather(root int, size int64, payload any) []any {
	c := r.comm
	sp := c.world.Trace.Begin(r.P, trace.CatMPI, "gather")
	defer func() { sp.End(r.P.Now()) }()
	if c.gatherVals == nil {
		c.gatherVals = make([]any, len(c.ranks))
	}
	c.gatherVals[r.rank] = payload
	c.barrier.Wait(r.P)
	var out []any
	if r.rank == root {
		out = make([]any, len(c.gatherVals))
		copy(out, c.gatherVals)
	}
	c.collectiveDone()
	r.P.Sleep(c.treeCost(size))
	return out
}

// AllreduceMax models an allreduce of one float64 with the max operation.
func (r *Rank) AllreduceMax(v float64) float64 {
	c := r.comm
	sp := c.world.Trace.Begin(r.P, trace.CatMPI, "allreduce-max")
	if c.reducePhase == 0 {
		c.reduceVal = v
		c.reducePhase = 1
	} else if v > c.reduceVal {
		c.reduceVal = v
	}
	c.barrier.Wait(r.P)
	out := c.reduceVal
	c.collectiveDone()
	r.P.Sleep(c.treeCost(8))
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
		c.reducePhase = 0
		c.gatherVals = nil
		c.bcastVal = nil
	}
}

// Compute advances the rank's virtual time by d seconds of computation.
func (r *Rank) Compute(d float64) { r.P.Sleep(d) }
