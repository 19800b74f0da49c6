// Package schedule models how application and server processes are placed
// onto the cores and NUMA sockets of each compute node, and how that
// placement shapes per-process memory bandwidth (paper §II-C, Fig. 4).
//
// Two policies are provided:
//
//   - CFS approximates Linux's Completely Fair Scheduler as seen by a bursty,
//     synchronized HPC job mix: each program's processes are laid out from
//     the lowest-numbered core up, oblivious of other programs sharing the
//     node. Co-located programs therefore stack on the low cores (incurring
//     context switches) while high cores idle, and a small program lands
//     entirely on socket 0 (single-NUMA memory bandwidth).
//
//   - InterferenceAware is UniviStor's policy: each program's processes are
//     spread evenly across NUMA sockets, remainders go to the less-loaded
//     socket, oversubscribed processes borrow cores from idle programs
//     state-awarely, and clients are migrated off server cores for the
//     duration of a flush (Fig. 4 b–d).
//
// Placement feeds the performance model through each process's MemPort: a
// private sim resource whose capacity is the core's peak memcpy rate divided
// among the runnable processes stacked on that core, discounted by a
// context-switch efficiency per extra process.
package schedule

import (
	"fmt"
	"math"

	"univistor/internal/sim"
	"univistor/internal/topology"
)

// Policy selects the placement algorithm.
type Policy int

const (
	// CFS is the baseline operating-system scheduler model.
	CFS Policy = iota
	// InterferenceAware is UniviStor's NUMA- and state-aware placement.
	InterferenceAware
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case CFS:
		return "CFS"
	case InterferenceAware:
		return "IA"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ProcHandle is one placed process. Its MemPort must appear on the resource
// path of every memory-bound transfer the process performs, together with
// its socket's memory-bandwidth resource (see MemPath).
type ProcHandle struct {
	Program string
	Rank    int
	Node    int

	sched    *Scheduler
	core     *topology.Core
	homeCore *topology.Core // core before a flush migration
	socket   *topology.Socket
	runnable bool
	MemPort  *sim.Resource
	// memPath caches the MemPath slice. It is dropped (not mutated) when a
	// flush migration changes the socket, so slices handed out earlier keep
	// describing the path that was current when they were taken.
	memPath []*sim.Resource
}

// Core returns the node-local index of the core the process currently runs
// on.
func (h *ProcHandle) Core() int { return h.core.Index }

// MemPath returns the resources a memory-bandwidth-bound operation by this
// process crosses: its private core share and the socket memory port. The
// slice is cached (transfers are path-hot: every write/read/flush leg takes
// one) and must not be appended to in place; callers building longer paths
// already copy it into their own slices.
func (h *ProcHandle) MemPath() []*sim.Resource {
	if h.memPath == nil {
		h.memPath = []*sim.Resource{h.MemPort, h.socket.MemBW}
	}
	return h.memPath
}

// SetRunnable marks the process as actively competing for its core (true)
// or blocked/idle (false). Idle processes do not degrade their core-mates.
func (h *ProcHandle) SetRunnable(r bool) {
	if h.runnable == r {
		return
	}
	h.runnable = r
	h.sched.refreshNode(h.Node)
}

// Scheduler owns placement state for every node of a cluster.
type Scheduler struct {
	cluster *topology.Cluster
	policy  Policy

	nodes []*nodeState

	changedPorts []*sim.Resource // refreshNode scratch
}

type nodeState struct {
	node  *topology.Node
	procs []*ProcHandle
	// perProgram counts processes placed so far, for placement cursors.
	perProgram map[string]int
	// runnableBuf is refreshNode's per-core runnable counter, indexed by
	// the node-local core index — refreshNode runs on every runnable
	// toggle, and a fresh map per call dominated its cost.
	runnableBuf []int
}

// New returns a scheduler over the cluster using the given policy.
func New(c *topology.Cluster, policy Policy) *Scheduler {
	s := &Scheduler{cluster: c, policy: policy}
	for _, n := range c.Nodes {
		s.nodes = append(s.nodes, &nodeState{node: n, perProgram: map[string]int{}})
	}
	return s
}

// Place pins a new process of the named program onto a core of the node and
// returns its handle. Processes start runnable.
func (s *Scheduler) Place(nodeID int, program string, rank int) *ProcHandle {
	ns := s.nodes[nodeID]
	var core *topology.Core
	switch s.policy {
	case CFS:
		core = s.placeCFS(ns, program)
	case InterferenceAware:
		core = s.placeIA(ns, program)
	default:
		panic(fmt.Sprintf("schedule: unknown policy %d", int(s.policy)))
	}
	h := &ProcHandle{
		Program:  program,
		Rank:     rank,
		Node:     nodeID,
		sched:    s,
		core:     core,
		homeCore: core,
		socket:   ns.node.Sockets[core.Socket],
		runnable: true,
		MemPort:  s.cluster.E.NewResource(fmt.Sprintf("memport[%d/%s.%d]", nodeID, program, rank), s.cluster.Cfg.CorePeakBW),
	}
	core.Pinned++
	ns.procs = append(ns.procs, h)
	ns.perProgram[program]++
	s.refreshNode(nodeID)
	return h
}

// placeCFS lays each program out from core 0 upward, ignoring co-located
// programs (socket-major core order ⇒ socket 0 fills first).
func (s *Scheduler) placeCFS(ns *nodeState, program string) *topology.Core {
	cores := ns.node.Cores()
	idx := ns.perProgram[program] % len(cores)
	return cores[idx]
}

// placeIA spreads each program's processes across sockets round-robin; the
// remainder goes to the less-loaded socket. Under oversubscription a new
// process stacks on a core already owned by the same program.
func (s *Scheduler) placeIA(ns *nodeState, program string) *topology.Core {
	placed := ns.perProgram[program]
	nSockets := len(ns.node.Sockets)
	// Preferred socket: round-robin by this program's own count, but when
	// counts tie, break toward the globally less-loaded socket.
	sockIdx := placed % nSockets
	if placed%nSockets == 0 && placed > 0 {
		sockIdx = s.lessLoadedSocket(ns)
	}
	sock := ns.node.Sockets[sockIdx]
	// First choice: an entirely free core on the preferred socket.
	if c := freeCore(sock); c != nil {
		return c
	}
	// Second: a free core on any socket.
	for _, other := range ns.node.Sockets {
		if c := freeCore(other); c != nil {
			return c
		}
	}
	// Oversubscribed: state-aware borrowing (Fig. 4c/d) — prefer a core
	// whose current occupants are all idle (typically the quiescent
	// UniviStor servers); flush-time migration moves the borrower away
	// when the servers wake. Otherwise stack on the least-loaded core
	// already hosting this program.
	if c := s.idleOccupantCore(ns); c != nil {
		return c
	}
	return leastLoadedCore(ns, program, nil)
}

// idleOccupantCore returns the least-loaded core whose occupants are all
// currently idle (not runnable), or nil if none exists.
func (s *Scheduler) idleOccupantCore(ns *nodeState) *topology.Core {
	// runnable counts each occupied core's runnable occupants; a core
	// with no occupant has no key.
	runnable := map[*topology.Core]int{}
	for _, h := range ns.procs {
		n := runnable[h.core]
		if h.runnable {
			n++
		}
		runnable[h.core] = n
	}
	var best *topology.Core
	for _, c := range ns.node.Cores() {
		if n, occupied := runnable[c]; !occupied || n > 0 {
			continue
		}
		if best == nil || c.Pinned < best.Pinned {
			best = c
		}
	}
	return best
}

func (s *Scheduler) lessLoadedSocket(ns *nodeState) int {
	best, bestLoad := 0, math.MaxInt
	for i, sock := range ns.node.Sockets {
		load := 0
		for _, c := range sock.Cores {
			load += c.Pinned
		}
		if load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

func freeCore(sock *topology.Socket) *topology.Core {
	for _, c := range sock.Cores {
		if c.Pinned == 0 {
			return c
		}
	}
	return nil
}

// leastLoadedCore is the one core rule of oversubscribed placement and of
// flush-time migration: the least-loaded core hosting a process of the
// program, else the least-loaded core of the node, skipping cores in
// exclude either way. Ties go to the first candidate met.
func leastLoadedCore(ns *nodeState, program string, exclude map[*topology.Core]bool) *topology.Core {
	var best *topology.Core
	for _, h := range ns.procs {
		if h.Program != program || exclude[h.core] {
			continue
		}
		if best == nil || h.core.Pinned < best.Pinned {
			best = h.core
		}
	}
	if best == nil {
		for _, c := range ns.node.Cores() {
			if exclude[c] {
				continue
			}
			if best == nil || c.Pinned < best.Pinned {
				best = c
			}
		}
	}
	return best
}

// moveTo re-pins the process onto core c.
func (h *ProcHandle) moveTo(c *topology.Core) {
	h.core.Pinned--
	h.core = c
	h.socket = h.sched.nodes[h.Node].node.Sockets[c.Socket]
	h.memPath = nil // next MemPath sees the new socket
	c.Pinned++
}

// BeginFlush tells the scheduler that server processes of the named program
// on the node are entering their flush phase. Under InterferenceAware, any
// process of a different program sharing a core with one of the flushing
// servers is migrated to a core owned by its own program for the duration
// (Fig. 4d). CFS does nothing.
func (s *Scheduler) BeginFlush(nodeID int, serverProgram string) {
	ns := s.nodes[nodeID]
	if s.policy != InterferenceAware {
		return
	}
	serverCores := map[*topology.Core]bool{}
	for _, h := range ns.procs {
		if h.Program == serverProgram {
			serverCores[h.core] = true
		}
	}
	for _, h := range ns.procs {
		if h.Program == serverProgram || !serverCores[h.core] {
			continue
		}
		if dst := leastLoadedCore(ns, h.Program, serverCores); dst != nil && dst != h.core {
			h.moveTo(dst)
		}
	}
	s.refreshNode(nodeID)
}

// EndFlush reverses BeginFlush: migrated processes return to their home
// cores.
func (s *Scheduler) EndFlush(nodeID int, serverProgram string) {
	ns := s.nodes[nodeID]
	if s.policy != InterferenceAware {
		return
	}
	for _, h := range ns.procs {
		if h.core != h.homeCore {
			h.moveTo(h.homeCore)
		}
	}
	s.refreshNode(nodeID)
}

// refreshNode recomputes every process's effective core share on the node
// and propagates the change into any in-flight transfers. Only the mem
// ports whose capacity actually changed are handed to the allocator, so
// with the incremental allocator a refresh re-solves just the components
// crossing this node. A refresh that changes nothing is not free: the
// allocator still advances every active flow to now and reschedules the
// completion event, superseding the old one. It cannot be skipped without
// moving simulated times, because above 1024 active flows the completion
// slack is re-derived from now.
func (s *Scheduler) refreshNode(nodeID int) {
	ns := s.nodes[nodeID]
	// Count runnable processes per core.
	if len(ns.runnableBuf) != len(ns.node.Cores()) {
		ns.runnableBuf = make([]int, len(ns.node.Cores()))
	}
	runnable := ns.runnableBuf
	clear(runnable)
	for _, h := range ns.procs {
		if h.runnable {
			runnable[h.core.Index]++
		}
	}
	peak := s.cluster.Cfg.CorePeakBW
	eff := s.cluster.Cfg.CtxSwitchEff
	changed := s.changedPorts[:0]
	for _, h := range ns.procs {
		n := runnable[h.core.Index]
		if n < 1 {
			n = 1
		}
		share := peak / float64(n) * math.Pow(eff, float64(n-1))
		if h.MemPort.Capacity != share {
			h.MemPort.Capacity = share
			changed = append(changed, h.MemPort)
		}
	}
	s.changedPorts = changed[:0]
	s.cluster.E.RecomputeResources(changed...)
}

// NodeProcs returns the handles placed on a node, in placement order.
func (s *Scheduler) NodeProcs(nodeID int) []*ProcHandle {
	return s.nodes[nodeID].procs
}

// SocketSpread returns, for the named program on a node, how many of its
// processes sit on each socket — a diagnostic the tests read.
func (s *Scheduler) SocketSpread(nodeID int, program string) []int {
	ns := s.nodes[nodeID]
	out := make([]int, len(ns.node.Sockets))
	for _, h := range ns.procs {
		if h.Program == program {
			out[h.socket.Index]++
		}
	}
	return out
}

// MaxStack returns the largest number of processes pinned to any single core
// of the node.
func (s *Scheduler) MaxStack(nodeID int) int {
	max := 0
	for _, c := range s.nodes[nodeID].node.Cores() {
		if c.Pinned > max {
			max = c.Pinned
		}
	}
	return max
}
