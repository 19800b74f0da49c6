package core

// Resilience for volatile storage layers — the first of the paper's two
// future-work directions (§V). Data cached on node-local tiers (DRAM,
// local SSD) is lost when its node fails; with replication enabled,
// UniviStor synchronously mirrors every volatile-tier segment to the
// buddy node's server at write time, and the read service falls back to
// the replica (or to the flushed PFS copy) when the producer node is down.

import (
	"fmt"

	"univistor/internal/meta"
	"univistor/internal/sim"
	"univistor/internal/trace"
)

// ErrDataLost is returned when a read needs a segment whose only copy was
// on a failed node.
var ErrDataLost = fmt.Errorf("core: data lost — producer node failed with no replica and no flushed copy")

// buddyNode returns the node holding node n's replicas.
func (sys *System) buddyNode(n int) int {
	return (n + 1) % len(sys.W.Cluster.Nodes)
}

// buddyServer returns the server process hosting replicas for clients of
// the given server.
func (sys *System) buddyServer(s *Server) *Server {
	b := sys.buddyNode(s.Node)
	return sys.servers[b*sys.Cfg.ServersPerNode+s.LocalIdx]
}

// replicate mirrors a freshly written volatile-tier segment to the buddy
// node: one synchronous transfer from the producing server's memory port
// over the network into the buddy server's memory port and socket.
func (sys *System) replicate(p *sim.Proc, c *Client, size int64) {
	buddy := sys.buddyServer(c.server)
	if buddy.Node == c.server.Node {
		return // single-node cluster: nowhere to replicate
	}
	sp := sys.W.Trace.Begin(p, trace.CatReplicate, "replicate")
	path := append([]*sim.Resource{c.server.Rank.H.MemPort},
		sys.W.Cluster.NetPath(c.server.Node, buddy.Node)...)
	path = append(path, buddy.Rank.H.MemPath()...)
	p.Sleep(sys.W.Cluster.Cfg.NetLatency)
	p.Transfer(float64(size), path...)
	sys.stats.Replications++
	sp.End(p.Now())
}

// FailNode simulates the loss of a compute node's volatile storage (the
// job keeps running on the survivors; in a real deployment this is the
// node crashing and its DRAM contents evaporating). Subsequent reads of
// segments whose only copy lived there return ErrDataLost unless the file
// was flushed or replication is enabled.
func (sys *System) FailNode(node int) {
	if node < 0 || node >= len(sys.failedNodes) {
		panic(fmt.Sprintf("core: FailNode(%d) out of range", node))
	}
	sys.failedNodes[node] = true
	if sys.InvariantCheck != nil {
		sys.InvariantCheck("fail-node")
	}
}

// Buddy returns the node holding node n's replicas (fault injectors use it
// to aim double failures at a replica pair).
func (sys *System) Buddy(n int) int { return sys.buddyNode(n) }

// StallServer freezes server s's metadata service until the given virtual
// time: requests arriving during the window queue behind it, modelling a
// server pinned by an external hiccup (GC pause, OS jitter, IO stall).
func (sys *System) StallServer(s int, until sim.Time) {
	if s < 0 || s >= len(sys.servers) {
		panic(fmt.Sprintf("core: StallServer(%d) out of range", s))
	}
	if srv := sys.servers[s]; srv.ops.Free < until {
		srv.ops.Free = until
	}
}

// SetWriteObserver installs fn to observe the running count of completed
// WriteAt calls — the trigger for write-count-scheduled fault injection.
func (sys *System) SetWriteObserver(fn func(total int64)) { sys.onWrite = fn }

// fetchFromReplicaOrPFS serves the [lo, lo+bytes) portion of a volatile-tier
// segment (rec) whose producer node failed: from the flushed PFS copy if one
// exists, else from the buddy replica, else the data is lost. Either rescue
// path counts toward Stats.BytesReadDegraded.
func (cf *ClientFile) fetchFromReplicaOrPFS(p *sim.Proc, producer *ClientFile, rec meta.Record, lo, bytes int64) error {
	c := cf.c
	sys := c.sys
	fs := cf.fs
	myNode := c.rank.Node()

	sp := sys.W.Trace.Begin(p, trace.CatRead, "read-degraded")
	defer func() { sp.End(p.Now()) }()

	if fs.flushed && fs.pfsFile != nil {
		// Address the segment's actual range inside the flush file: the
		// layout recorded when the flush was triggered, advanced by how far
		// into the segment this read starts.
		off := lo
		if base, ok := fs.flushOff[rec.Offset]; ok {
			off = base + (lo - rec.Offset)
		}
		fs.pfsFile.Read(p, myNode, off, bytes, c.rank.H.MemPort)
		sys.stats.BytesReadDegraded += bytes
		sys.servedReadBytes += bytes
		return nil
	}
	if !sys.Cfg.ReplicateVolatile {
		return ErrDataLost
	}
	buddy := sys.buddyServer(producer.c.server)
	if sys.failedNodes[buddy.Node] {
		return fmt.Errorf("core: both producer node %d and replica node %d failed: %w",
			producer.c.rank.Node(), buddy.Node, ErrDataLost)
	}
	// Replica read: buddy server's memory, then the network to the reader.
	p.Sleep(sys.W.Cluster.Cfg.NetLatency)
	path := append([]*sim.Resource{}, buddy.Rank.H.MemPath()...)
	path = append(path, sys.W.Cluster.NetPath(buddy.Node, myNode)...)
	path = append(path, c.rank.H.MemPort)
	p.Transfer(float64(bytes), path...)
	sys.stats.BytesReadDegraded += bytes
	sys.servedReadBytes += bytes
	return nil
}
