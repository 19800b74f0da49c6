// Package topology describes the simulated HPC cluster: compute nodes with
// NUMA sockets and cores, the interconnect fabric, burst-buffer service
// nodes, and the parallel-file-system storage targets. It builds the sim
// resources every other layer debits, and it carries the calibration
// constants (bandwidths, latencies) for the modelled machine.
//
// The Cori preset matches the paper's testbed: a Cray XC40 with 32-core
// dual-socket Haswell nodes (128 GB DRAM), a Cray Aries interconnect, a
// shared DataWarp burst buffer, and a Lustre file system with 248 OSTs.
package topology

import (
	"fmt"
	"math"

	"univistor/internal/sim"
)

// Config holds the static description and calibration of a cluster.
type Config struct {
	// Compute nodes.
	Nodes          int
	CoresPerNode   int
	SocketsPerNode int
	DRAMPerNode    int64   // bytes usable as the UniviStor DRAM tier
	DRAMBWSocket   float64 // bytes/s streaming bandwidth per NUMA socket
	CorePeakBW     float64 // bytes/s a single unshared core can memcpy

	// Optional node-local NVRAM/SSD tier (zero Nodes ⇒ absent, as on Cori).
	LocalSSDPerNode int64
	LocalSSDBW      float64

	// Interconnect.
	NICBW      float64 // bytes/s injection bandwidth per node
	FabricBW   float64 // bytes/s bisection bandwidth of the whole fabric
	NetLatency float64 // seconds, per message one-way

	// Shared burst buffer.
	BBNodes      int
	BBCapPerNode int64
	BBBWPerNode  float64
	BBLatency    float64 // seconds per BB operation
	BBStripeSize int64   // DataWarp-style stripe granularity

	// Parallel file system (Lustre-like).
	OSTs           int
	OSTBW          float64 // bytes/s per OST
	OSTCapacity    int64
	PFSLatency     float64 // seconds per PFS RPC
	MaxStripeSize  int64   // S_max in Eq. 3
	SharedFileEff  float64 // fraction of striped bandwidth a contended shared file retains
	SharedWriterBW float64 // bytes/s one process can push into a contended shared file (extent-lock serialization)
	PFSClientBW    float64 // bytes/s per compute node through the Lustre client stack (LNET/RPC)

	// Scheduling model.
	CtxSwitchEff float64 // per extra process stacked on a core, multiplicative efficiency
}

// Cori returns a configuration calibrated to the paper's testbed (NERSC Cori
// Haswell partition). Absolute numbers follow published specs; they set the
// scale of the figures, while the comparisons depend on the ratios.
func Cori() Config {
	const (
		GB = 1 << 30
		TB = 1 << 40
	)
	return Config{
		Nodes:          256, // enough for 8192 ranks at 32/node
		CoresPerNode:   32,
		SocketsPerNode: 2,
		DRAMPerNode:    48 * GB, // of 128 GB: the share usable as cache beside the app's working set
		DRAMBWSocket:   60 * GB,
		CorePeakBW:     7 * GB,

		LocalSSDPerNode: 0, // Cori Haswell has no node-local SSD
		LocalSSDBW:      0,

		NICBW:      8 * GB, // Aries injection
		FabricBW:   10 * TB,
		NetLatency: 2e-6,

		BBNodes:      64, // BB allocation granted to the job
		BBCapPerNode: 6 * TB,
		BBBWPerNode:  5.7 * GB, // DataWarp node: ~6.5 GB/s raw, ~5.7 sustained
		BBLatency:    1e-4,
		BBStripeSize: 8 << 20,

		OSTs:           248,
		OSTBW:          1.1 * GB,
		OSTCapacity:    30 * TB,
		PFSLatency:     5e-4,
		MaxStripeSize:  1 * GB,
		SharedFileEff:  0.30,
		SharedWriterBW: 55 << 20, // ≈3.5 GB/s at 64 contended writers, matching measured shared-file h5 rates
		PFSClientBW:    2.5 * GB,

		CtxSwitchEff: 0.85,
	}
}

// Validate reports a descriptive error for inconsistent configurations.
// Every bandwidth in use must be finite and positive, every latency finite
// and non-negative, every byte capacity non-negative and each efficiency
// in (0,1]; NaN fails them all.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("topology: Nodes must be positive, got %d", c.Nodes)
	case c.CoresPerNode <= 0:
		return fmt.Errorf("topology: CoresPerNode must be positive, got %d", c.CoresPerNode)
	case c.SocketsPerNode <= 0 || c.CoresPerNode%c.SocketsPerNode != 0:
		return fmt.Errorf("topology: %d cores not divisible across %d sockets", c.CoresPerNode, c.SocketsPerNode)
	case c.OSTs <= 0:
		return fmt.Errorf("topology: need at least one OST, got %d", c.OSTs)
	case c.BBNodes < 0:
		return fmt.Errorf("topology: BBNodes must be non-negative, got %d", c.BBNodes)
	case c.BBNodes > 0 && c.BBStripeSize <= 0:
		return fmt.Errorf("topology: BBStripeSize must be positive, got %d", c.BBStripeSize)
	case c.DRAMPerNode < 0 || c.LocalSSDPerNode < 0 || c.BBCapPerNode < 0 || c.OSTCapacity < 0:
		return fmt.Errorf("topology: byte capacities must be non-negative")
	}
	type field struct {
		name string
		v    float64
	}
	bws := []field{{"DRAMBWSocket", c.DRAMBWSocket}, {"CorePeakBW", c.CorePeakBW}, {"NICBW", c.NICBW},
		{"FabricBW", c.FabricBW}, {"OSTBW", c.OSTBW}, {"SharedWriterBW", c.SharedWriterBW}, {"PFSClientBW", c.PFSClientBW}}
	if c.LocalSSDPerNode > 0 {
		bws = append(bws, field{"LocalSSDBW", c.LocalSSDBW})
	}
	if c.BBNodes > 0 {
		bws = append(bws, field{"BBBWPerNode", c.BBBWPerNode})
	}
	for _, rule := range []struct {
		want   string
		ok     func(float64) bool
		fields []field
	}{
		{"finite and positive", func(v float64) bool { return v > 0 && !math.IsInf(v, 1) }, bws},
		{"finite and non-negative", func(v float64) bool { return v >= 0 && !math.IsInf(v, 1) },
			[]field{{"NetLatency", c.NetLatency}, {"BBLatency", c.BBLatency}, {"PFSLatency", c.PFSLatency}}},
		{"in (0,1]", func(v float64) bool { return v > 0 && v <= 1 },
			[]field{{"SharedFileEff", c.SharedFileEff}, {"CtxSwitchEff", c.CtxSwitchEff}}},
	} {
		for _, f := range rule.fields {
			if !rule.ok(f.v) { // NaN fails every rule
				return fmt.Errorf("topology: %s must be %s, got %v", f.name, rule.want, f.v)
			}
		}
	}
	return nil
}

// Core is one CPU core on a compute node. The scheduler records which
// processes are pinned to it; stacking degrades each process's effective
// compute/memcpy rate.
type Core struct {
	Node   int
	Socket int
	Index  int // node-local core index

	Pinned int // processes currently pinned here
}

// Socket is one NUMA domain: a set of cores plus a memory port.
type Socket struct {
	Node  int
	Index int
	MemBW *sim.Resource // shared by every process resident on this socket
	Cores []*Core
}

// Node is a compute node.
type Node struct {
	ID      int
	Sockets []*Socket
	NIC     *sim.Resource
	DRAM    *Capacity // DRAM-tier capacity accounting
	SSD     *Capacity // node-local SSD tier; nil capacity 0 when absent
	SSDBW   *sim.Resource
	// PFSPort is the node's Lustre client stack (LNET/RPC pipeline): every
	// PFS transfer from or to this node crosses it.
	PFSPort *sim.Resource

	cores []*Core // every socket's cores, socket-major
}

// Cores returns all cores of the node in socket-major order. The slice is
// the node's own: callers must not modify it.
func (n *Node) Cores() []*Core { return n.cores }

// BBNode is one burst-buffer service node.
type BBNode struct {
	ID  int
	BW  *sim.Resource
	Cap *Capacity
}

// OST is one Lustre object storage target.
type OST struct {
	ID  int
	BW  *sim.Resource
	Cap *Capacity
}

// Cluster is the realized cluster: config plus live sim resources.
type Cluster struct {
	E      *sim.Engine
	Cfg    Config
	Nodes  []*Node
	Fabric *sim.Resource
	BB     []*BBNode
	OSTs   []*OST
}

// New builds a cluster's resources on the engine. It panics on an invalid
// config (construction happens at setup time; failing fast beats limping).
func New(e *sim.Engine, cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cluster{E: e, Cfg: cfg}
	c.Fabric = e.NewResource("fabric", cfg.FabricBW)
	coresPerSocket := cfg.CoresPerNode / cfg.SocketsPerNode
	for n := 0; n < cfg.Nodes; n++ {
		node := &Node{
			ID:      n,
			NIC:     e.NewResource(fmt.Sprintf("nic[%d]", n), cfg.NICBW),
			DRAM:    NewCapacity(fmt.Sprintf("dram[%d]", n), cfg.DRAMPerNode),
			PFSPort: e.NewResource(fmt.Sprintf("pfsport[%d]", n), cfg.PFSClientBW),
		}
		if cfg.LocalSSDPerNode > 0 {
			node.SSD = NewCapacity(fmt.Sprintf("ssd[%d]", n), cfg.LocalSSDPerNode)
			node.SSDBW = e.NewResource(fmt.Sprintf("ssdbw[%d]", n), cfg.LocalSSDBW)
		} else {
			node.SSD = NewCapacity(fmt.Sprintf("ssd[%d]", n), 0)
		}
		for s := 0; s < cfg.SocketsPerNode; s++ {
			sock := &Socket{
				Node:  n,
				Index: s,
				MemBW: e.NewResource(fmt.Sprintf("mem[%d.%d]", n, s), cfg.DRAMBWSocket),
			}
			for k := 0; k < coresPerSocket; k++ {
				sock.Cores = append(sock.Cores, &Core{Node: n, Socket: s, Index: s*coresPerSocket + k})
			}
			node.Sockets = append(node.Sockets, sock)
			node.cores = append(node.cores, sock.Cores...)
		}
		c.Nodes = append(c.Nodes, node)
	}
	for b := 0; b < cfg.BBNodes; b++ {
		c.BB = append(c.BB, &BBNode{
			ID:  b,
			BW:  e.NewResource(fmt.Sprintf("bb[%d]", b), cfg.BBBWPerNode),
			Cap: NewCapacity(fmt.Sprintf("bbcap[%d]", b), cfg.BBCapPerNode),
		})
	}
	for o := 0; o < cfg.OSTs; o++ {
		c.OSTs = append(c.OSTs, &OST{
			ID:  o,
			BW:  e.NewResource(fmt.Sprintf("ost[%d]", o), cfg.OSTBW),
			Cap: NewCapacity(fmt.Sprintf("ostcap[%d]", o), cfg.OSTCapacity),
		})
	}
	return c
}

// BBAggregateBW returns the aggregate burst-buffer bandwidth of the
// allocation.
func (c *Cluster) BBAggregateBW() float64 {
	return float64(c.Cfg.BBNodes) * c.Cfg.BBBWPerNode
}

// NetPath returns the resources a transfer from node src to node dst
// crosses. Intra-node transfers cross nothing (memory bandwidth is charged
// separately by the caller).
func (c *Cluster) NetPath(src, dst int) []*sim.Resource {
	if src == dst {
		return nil
	}
	return []*sim.Resource{c.Nodes[src].NIC, c.Fabric, c.Nodes[dst].NIC}
}

// Capacity tracks byte-granular space accounting for a storage pool.
type Capacity struct {
	name  string
	total int64
	used  int64
}

// NewCapacity returns a pool with the given total size in bytes.
func NewCapacity(name string, total int64) *Capacity {
	return &Capacity{name: name, total: total}
}

// Total returns the pool size in bytes.
func (c *Capacity) Total() int64 { return c.total }

// Used returns the bytes currently allocated.
func (c *Capacity) Used() int64 { return c.used }

// Free returns the bytes still available.
func (c *Capacity) Free() int64 { return c.total - c.used }

// Alloc reserves n bytes. It returns false (reserving nothing) if fewer than
// n bytes are free.
func (c *Capacity) Alloc(n int64) bool {
	if n < 0 {
		panic(fmt.Sprintf("topology: negative allocation %d on %s", n, c.name))
	}
	if c.used+n > c.total {
		return false
	}
	c.used += n
	return true
}

// Release returns n bytes to the pool.
func (c *Capacity) Release(n int64) {
	if n < 0 || c.used-n < 0 {
		panic(fmt.Sprintf("topology: invalid release %d on %s (used %d)", n, c.name, c.used))
	}
	c.used -= n
}
