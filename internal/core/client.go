package core

import (
	"fmt"

	"univistor/internal/logstore"
	"univistor/internal/meta"
	"univistor/internal/mpi"
	"univistor/internal/tier"
)

// Client is one application process's handle on UniviStor — the state the
// client library keeps between MPI_Init and MPI_Finalize.
type Client struct {
	sys      *System
	rank     *mpi.Rank
	server   *Server // co-located server this client's requests go through
	localIdx int     // index of this client among its app's ranks on the node
	globalID int     // system-wide unique client id (proc id in metadata)
}

// Connect attaches an application rank to UniviStor (the MPI_Init hook of
// the connection-management module).
func (sys *System) Connect(r *mpi.Rank) *Client {
	counts := sys.nodeAppCount[r.Comm().Name()]
	if counts == nil {
		counts = make([]int, len(sys.W.Cluster.Nodes))
		sys.nodeAppCount[r.Comm().Name()] = counts
	}
	localIdx := counts[r.Node()]
	counts[r.Node()]++
	sys.nextClientID++
	base := r.Node() * sys.Cfg.ServersPerNode
	return &Client{
		sys:      sys,
		rank:     r,
		server:   sys.servers[base+localIdx%sys.Cfg.ServersPerNode],
		localIdx: localIdx,
		globalID: sys.nextClientID,
	}
}

// Rank returns the underlying application rank.
func (c *Client) Rank() *mpi.Rank { return c.rank }

// ClientFile is an open handle on a logical file in the unified namespace.
type ClientFile struct {
	c    *Client
	fs   *fileState
	mode mpi.Mode

	ls     *logstore.LogSet           // per-process per-tier logs (write mode)
	devs   [meta.NumTiers]tier.Device // per-tier device backing each log
	closed bool
}

// FID returns the file's id in the unified namespace.
func (cf *ClientFile) FID() meta.FileID { return cf.fs.fid }

// Open opens a logical file. It is a collective operation: every rank of
// the application must call it with the same arguments. With COC enabled,
// only the root contacts the file's home server and broadcasts the result;
// otherwise every rank performs the metadata operation. With workflow
// management enabled, the root acquires the file's read/write lock before
// the broadcast (§II-E).
func (c *Client) Open(name string, mode mpi.Mode) (*ClientFile, error) {
	sys := c.sys
	home := sys.homeServer(name)
	if sys.Cfg.CollectiveOpenClose {
		if c.rank.Rank() == 0 {
			sys.chargeOpenOp(c.rank.P, c.rank.Node(), home)
			if sys.Cfg.Workflow {
				c.acquireLock(name, mode)
			}
		}
		c.rank.Bcast(0, 256, nil)
	} else {
		// All-to-one: every rank performs the same open operation at the
		// home server, serializing there.
		if sys.Cfg.Workflow && c.rank.Rank() == 0 {
			c.acquireLock(name, mode)
		}
		sys.chargeOpenOp(c.rank.P, c.rank.Node(), home)
		c.rank.Barrier()
	}

	fs, err := sys.fileByName(name, mode == mpi.WriteOnly)
	if err != nil {
		return nil, err
	}
	cf := &ClientFile{c: c, fs: fs, mode: mode}
	if mode == mpi.WriteOnly {
		if err := cf.setupLogs(); err != nil {
			return nil, err
		}
		fs.procFiles[c.globalID] = cf
	}
	return cf, nil
}

func (c *Client) acquireLock(name string, mode mpi.Mode) {
	if mode == mpi.WriteOnly {
		c.sys.WF.AcquireWrite(c.rank.P, name)
	} else {
		c.sys.WF.AcquireRead(c.rank.P, name)
	}
}

// setupLogs creates the per-process logs: capacity c/p per tier (§II-B1),
// where c is the tier's available capacity (node-local pools for DRAM,
// the whole allocation for globally pooled tiers) and p the process count
// sharing it. Each chain backend reserves its own capacity and binds a
// device to the resulting log.
func (cf *ClientFile) setupLogs() error {
	c := cf.c
	sys := c.sys
	node := c.rank.Node()
	req := tier.OpenReq{
		FID:         int64(cf.fs.fid),
		Owner:       c.globalID,
		Node:        node,
		ProcsOnNode: sys.nodeAppCount[c.rank.Comm().Name()][node],
		ProcsGlobal: c.rank.Size(),
	}

	var caps [meta.NumTiers]int64
	for _, bk := range sys.chain.Backends() {
		dev, got := bk.Open(req)
		cf.devs[bk.Tier()], caps[bk.Tier()] = dev, got
		if got > 0 {
			rnode := node
			if bk.Shared() {
				rnode = -1 // globally pooled
			}
			cf.fs.reservations = append(cf.fs.reservations,
				reservation{tier: bk.Tier(), node: rnode, bytes: got})
		}
	}

	var err error
	cf.ls, err = logstore.NewLogSet(c.globalID, caps, sys.Cfg.ChunkSize)
	return err
}

// Flush triggers the server-side asynchronous flush of the file's dirty
// bytes without closing the handle (an MPI_File_sync). Collective: every
// rank of the application must call it; the root triggers after the
// barrier. Like Close, it returns as soon as the flush is *triggered* —
// use System.WaitFlush to observe completion.
func (cf *ClientFile) Flush() error {
	if cf.closed {
		return fmt.Errorf("core: flush on closed file %q", cf.fs.name)
	}
	if cf.mode != mpi.WriteOnly {
		return fmt.Errorf("core: flush on %q opened for %s", cf.fs.name, cf.mode)
	}
	c := cf.c
	c.rank.Barrier()
	if c.rank.Rank() == 0 {
		c.sys.triggerFlush(c.rank.P, cf.fs)
	}
	return nil
}

// Close closes the handle. It is collective; the root piggybacks the
// workflow lock release and, for dirty write handles, triggers the
// server-side asynchronous flush (§II-A). Close returns as soon as the
// flush is *triggered* — use System.WaitFlush to observe completion.
func (cf *ClientFile) Close() error {
	if cf.closed {
		return fmt.Errorf("core: double close of %q", cf.fs.name)
	}
	cf.closed = true
	c := cf.c
	sys := c.sys
	// With COC only the root contacts the home server; otherwise every rank
	// does.
	if !sys.Cfg.CollectiveOpenClose || c.rank.Rank() == 0 {
		sys.chargeOpenOp(c.rank.P, c.rank.Node(), sys.homeServer(cf.fs.name))
	}
	c.rank.Barrier()
	if c.rank.Rank() == 0 {
		if sys.Cfg.Workflow {
			if cf.mode == mpi.WriteOnly {
				sys.WF.ReleaseWrite(c.rank.P, cf.fs.name)
			} else {
				sys.WF.ReleaseRead(c.rank.P, cf.fs.name)
			}
		}
		if cf.mode == mpi.WriteOnly && sys.Cfg.FlushOnClose {
			sys.triggerFlush(c.rank.P, cf.fs)
		}
	}
	return nil
}
