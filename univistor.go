// Package univistor is the public entry point of the UniviStor
// reproduction: a unified hierarchical and distributed storage service for
// HPC (Wang, Byna, Dong, Tang — IEEE CLUSTER 2018), implemented over a
// deterministic discrete-event simulation of a Cori-class supercomputer.
//
// A Cluster bundles the simulated machine, the UniviStor server deployment,
// and the MPI-IO driver stack. Applications are Go closures launched as
// simulated parallel jobs; their file I/O goes through the same client
// library, placement, metadata, and flush paths the paper describes, with
// virtual time supplying the performance numbers.
//
//	c, _ := univistor.New(univistor.Defaults())
//	job := c.Launch("app", 8, func(a *univistor.App) {
//	    f, _ := a.Create("data/particles.h5")
//	    f.WriteAt(int64(a.Rank())<<20, 1<<20, payload)
//	    f.Close()
//	})
//	c.Run(job)
//
// The internal packages remain available for fine-grained control; this
// package wires them together with sensible defaults.
package univistor

import (
	"fmt"
	"reflect"

	"univistor/internal/bench"
	"univistor/internal/core"
	"univistor/internal/mpi"
	"univistor/internal/mpiio"
	"univistor/internal/sim"
	"univistor/internal/topology"
)

// Options configures a Cluster.
type Options struct {
	// Machine describes the simulated hardware. The zero value uses
	// Defaults().Machine; any other value must pass its Validate.
	Machine topology.Config
	// Service configures UniviStor itself (servers per node, cache tiers,
	// optimizations). The zero value uses core.DefaultConfig; any other
	// value must pass its Validate.
	Service core.Config
}

// Defaults returns the evaluation configuration: a 16-node Cori slice, two
// servers per node, DRAM+BB caching, every optimization on.
func Defaults() Options {
	m := topology.Cori()
	m.Nodes = 16
	m.BBNodes = 8
	return Options{Machine: m, Service: core.DefaultConfig()}
}

// Cluster is a running UniviStor deployment on a simulated machine.
type Cluster struct {
	Engine  *sim.Engine
	World   *mpi.World
	System  *core.System
	Driver  *mpiio.UniviStorDriver
	Env     *mpiio.Env
	Machine *topology.Cluster

	stack *bench.Stack
}

// New builds the simulated machine and launches the UniviStor servers.
// Ranks are placed interference-aware when Service.InterferenceAware is
// set.
func New(opts Options) (*Cluster, error) {
	if reflect.ValueOf(opts.Machine).IsZero() {
		opts.Machine = Defaults().Machine
	}
	if reflect.ValueOf(opts.Service).IsZero() {
		opts.Service = core.DefaultConfig()
	}
	st, err := bench.NewStack(opts.Machine, "univistor", opts.Service, "", "")
	if err != nil {
		return nil, err
	}
	return &Cluster{Engine: st.E, World: st.W, System: st.UV.Sys, Driver: st.UV, Env: st.Env,
		Machine: st.W.Cluster, stack: st}, nil
}

// App is the per-rank context handed to application code.
type App struct {
	c *Cluster
	r *mpi.Rank
}

// Rank returns the process's rank within its job.
func (a *App) Rank() int { return a.r.Rank() }

// Size returns the job's process count.
func (a *App) Size() int { return a.r.Size() }

// Node returns the compute node the rank runs on.
func (a *App) Node() int { return a.r.Node() }

// Now returns the current virtual time in seconds.
func (a *App) Now() float64 { return float64(a.r.Now()) }

// Compute advances virtual time by d seconds of computation.
func (a *App) Compute(d float64) { a.r.Compute(d) }

// Barrier synchronizes all ranks of the job.
func (a *App) Barrier() { a.r.Barrier() }

// MPIRank exposes the underlying simulated MPI rank for advanced use.
func (a *App) MPIRank() *mpi.Rank { return a.r }

// File is an open handle in the unified namespace.
type File = mpiio.File

// Create opens a file for writing through UniviStor (collective: every
// rank of the job must call it with the same name).
func (a *App) Create(name string) (File, error) {
	return a.c.Env.Open(a.r, name, mpiio.WriteOnly)
}

// Open opens an existing file for reading (collective).
func (a *App) Open(name string) (File, error) {
	return a.c.Env.Open(a.r, name, mpiio.ReadOnly)
}

// WaitFlush blocks until the named file's pending server-side flush
// completes.
func (a *App) WaitFlush(name string) {
	a.c.System.WaitFlush(a.r.P, name)
}

// Job is a launched parallel application.
type Job = mpi.Comm

// Launch starts a parallel job of n ranks executing main. ranksPerNode 0
// defaults to the node's core count.
func (c *Cluster) Launch(name string, n int, main func(*App), opt ...LaunchOption) *Job {
	lo := mpi.LaunchOpts{}
	for _, o := range opt {
		o(&lo)
	}
	return c.World.Launch(name, n, func(r *mpi.Rank) {
		main(&App{c: c, r: r})
		c.Driver.Disconnect(r)
	}, lo)
}

// LaunchOption tweaks job placement.
type LaunchOption func(*mpi.LaunchOpts)

// WithRanksPerNode caps ranks per node.
func WithRanksPerNode(n int) LaunchOption {
	return func(o *mpi.LaunchOpts) { o.RanksPerNode = n }
}

// WithNodes pins the job to specific nodes.
func WithNodes(nodes ...int) LaunchOption {
	return func(o *mpi.LaunchOpts) { o.Nodes = append([]int(nil), nodes...) }
}

// Run drives the simulation until the given jobs complete, then shuts the
// UniviStor servers down and drains remaining events. It returns the final
// virtual time and an error if any simulated process deadlocked.
func (c *Cluster) Run(jobs ...*Job) (float64, error) {
	end, err := c.stack.Run(func(p *sim.Proc) {
		for _, j := range jobs {
			j.Wait(p)
		}
	})
	if err != nil {
		return float64(end), fmt.Errorf("univistor: %w", err)
	}
	return float64(end), nil
}

// FlushStats reports the last completed flush of a file: bytes moved and
// the flush interval in virtual seconds.
func (c *Cluster) FlushStats(name string) (bytes int64, seconds float64, ok bool) {
	b, start, end, ok := c.System.FlushStats(name)
	if !ok {
		return 0, 0, false
	}
	return b, float64(end - start), true
}

// FileSize returns a file's logical size.
func (c *Cluster) FileSize(name string) (int64, bool) { return c.System.FileSize(name) }
