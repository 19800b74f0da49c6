package core

import (
	"fmt"
	"hash/fnv"
	"sort"

	"univistor/internal/bb"
	"univistor/internal/castore"
	"univistor/internal/extent"
	"univistor/internal/kvstore"
	"univistor/internal/lustre"
	"univistor/internal/meta"
	"univistor/internal/metaplane"
	"univistor/internal/mpi"
	"univistor/internal/sim"
	"univistor/internal/striping"
	"univistor/internal/tier"
	"univistor/internal/trace"
	"univistor/internal/workflow"
)

// System is one UniviStor deployment: the server parallel program running
// on every compute node of the job, plus the shared state every client
// library instance attaches to.
type System struct {
	W   *mpi.World
	Cfg Config

	BB  *bb.System // nil when the job has no burst-buffer allocation
	PFS *lustre.FS
	WF  *workflow.Manager

	servers    []*Server
	serverComm *mpi.Comm
	// meta is the metadata service every client path goes through: the
	// single logical ring, or the sharded replicated plane when
	// Cfg.MetaShards > 0. ring and plane are its store, exactly one of them
	// non-nil, kept for the Ring/Plane accessors and the plane-only fault
	// entry points.
	meta       metaService
	ring       *kvstore.Ring
	plane      *metaplane.Plane
	metaDetail MetaOpDetail
	nodeMeta   []*kvstore.Store // per-node shared metadata buffer (§II-B4)
	chain      *tier.Chain      // the ordered storage hierarchy, terminal last

	files          map[string]*fileState
	nextFID        meta.FileID
	clients        int
	nodeFlushCount []int // flushing servers per node, for IA migration refcounts
	nodeAppCount   map[string][]int
	failedNodes    []bool // nodes whose volatile storage is gone
	stats          Stats

	// InvariantCheck, when set, is invoked at interesting state transitions
	// (flush completion, node failure) with a stage label — the chaos
	// harness's hook for sweeping invariants exactly when state changes
	// hands. It runs in the context of the process driving the transition
	// and must not block.
	InvariantCheck func(stage string)

	// cas, when non-nil, is the content-addressed dedup block store on the
	// flush path (Cfg.Dedup). casGCFile is the PFS scratch file the GC's
	// collection flows charge; casGCBusy guards the single background
	// collector; casLogical accumulates the logical bytes presented to
	// dedup planning (the counter track's logical axis).
	cas        *castore.Store
	casGCFile  *lustre.File
	casGCBusy  bool
	casLogical int64

	// writeOps counts completed WriteAt calls; onWrite (when set) observes
	// each one — the trigger for write-count-scheduled fault injection.
	writeOps int64
	onWrite  func(total int64)
	// servedReadBytes shadows the read path independently of the Stats
	// counters: every segment portion a read successfully retrieves adds
	// its bytes here, so stats coherence is checkable (see CheckInvariants).
	servedReadBytes int64
}

// Server is one UniviStor server process.
type Server struct {
	sys       *System
	Node      int
	LocalIdx  int
	GlobalIdx int
	Rank      *mpi.Rank
	// ops serializes the server's metadata record and open/close requests;
	// chaos stalls hold it too.
	ops sim.Queue
}

type fileState struct {
	fid  meta.FileID
	name string

	logicalSize int64
	content     extent.Map // authoritative payload bytes (empty in size-only runs)

	writers int
	readers int

	// cached[serverGlobalIdx][tier] = bytes that server must flush.
	cached      map[int]map[meta.Tier]int64
	cachedTotal int64
	procFiles   map[int]*ClientFile // producing proc (global client id) -> handle

	flushing       bool
	flushed        bool
	flushRemaining int
	flushStart     sim.Time
	flushEnd       sim.Time
	flushedBytes   int64
	// flushEv signals the completion of the *current* flush. sim.Event is
	// one-shot, so each triggerFlush installs a fresh event; waiters of a
	// finished flush saw theirs set, waiters of the next flush park on the
	// next event.
	flushEv *sim.Event
	pfsFile *lustre.File
	// flushOff maps a segment (by logical offset, the ring's key) to its
	// byte offset in the flush file, recorded when the flush is triggered
	// so degraded reads address the real range of the flushed copy.
	flushOff map[int64]int64

	// reservations to release when the flush (or final close) retires the
	// cached copies.
	reservations []reservation

	// heat counts reads per segment (keyed by logical offset) for the
	// proactive-placement extension; promotions counts migrations done.
	heat       map[int64]int
	promotions int

	// segTags maps a segment (by logical offset) to its content tag: the
	// payload's hash when real bytes were written, or the caller-supplied
	// tag of WriteAtTagged in size-only runs. The CAS layer fingerprints
	// flush blocks from these. Only maintained when dedup is enabled.
	segTags map[int64]uint64

	// totalWritten accumulates every logical byte ever written to the file
	// (never reset by flushes) — the independent ledger the stats-coherence
	// invariant compares Stats.BytesWritten against. overwritten counts the
	// bytes of records replaced by exact-key rewrites (the HDF5 metadata
	// region is rewritten at every dataset create), so totalWritten minus
	// overwritten is what the metadata ring must still resolve.
	totalWritten int64
	overwritten  int64
	// deletedEnd is the highest end offset among records removed by range
	// deletes. A tail gap reaching it is a punched hole, not a lost
	// record, so the coverage invariant's tail-gap check excuses it.
	deletedEnd int64
}

type reservation struct {
	tier  meta.Tier
	node  int // -1 for globally pooled tiers
	bytes int64
}

// NewSystem builds the UniviStor deployment and launches the server
// program across all nodes of the cluster (the `univistor-server` job the
// user starts before their applications). It returns an error on invalid
// configuration; cache tiers whose backend is unavailable on the cluster
// (e.g. BB caching without a burst-buffer allocation) are dropped and
// recorded in Stats.DroppedTiers.
func NewSystem(w *mpi.World, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sys := &System{
		W:     w,
		Cfg:   cfg,
		PFS:   lustre.NewFS(w.Cluster),
		files: map[string]*fileState{},
	}
	if len(w.Cluster.BB) > 0 {
		bbs, err := bb.New(w.Cluster)
		if err != nil {
			return nil, err
		}
		sys.BB = bbs
	}
	chain, err := tier.Build(cfg.CacheTiers, &tier.Env{
		Cluster: w.Cluster,
		BB:      sys.BB,
		PFS:     sys.PFS,
		Trace:   w.Trace,
		Cfg: tier.Params{
			ChunkSize:    cfg.ChunkSize,
			DRAMLogBytes: cfg.DRAMLogBytes,
			BBLogBytes:   cfg.BBLogBytes,
			TierLogBytes: cfg.TierLogBytes,
		},
	})
	if err != nil {
		return nil, err
	}
	sys.chain = chain
	// The surviving cache tiers are the deployment's effective config
	// (the paper's UniviStor/DRAM mode runs without a BB allocation).
	sys.Cfg.CacheTiers = chain.CacheTiers()
	sys.stats.DroppedTiers = append(sys.stats.DroppedTiers, chain.Dropped()...)
	sys.WF = workflow.NewManager(w.Cluster.Cfg.PFSLatency)
	if cfg.Dedup {
		if err := sys.setupCAS(); err != nil {
			return nil, err
		}
	}

	nNodes := len(w.Cluster.Nodes)
	nServers := nNodes * cfg.ServersPerNode
	if cfg.MetaShards == 0 {
		ringServers := nServers
		if cfg.CentralMetadata {
			ringServers = 1
		}
		sys.ring = kvstore.NewRing(ringServers, cfg.MetaRangeSize)
		sys.meta = &ringMeta{sys: sys, ring: sys.ring}
	} else {
		replicas := cfg.MetaReplicas
		if replicas <= 0 {
			replicas = 1
		}
		sys.Cfg.MetaReplicas = replicas
		pl, err := metaplane.New(metaplane.Config{
			Shards:        cfg.MetaShards,
			Replicas:      replicas,
			Nodes:         nNodes,
			RangeSize:     cfg.MetaRangeSize,
			FollowerReads: cfg.MetaFollowerReads,
			LeaseTime:     cfg.MetaLeaseTime,
			Costs:         cfg.MetaCosts(w.Cluster.Cfg.NetLatency),
		})
		if err != nil {
			return nil, err
		}
		sys.plane = pl
		sys.meta = &planeMeta{sys: sys, pl: pl}
		// Split-migration batches ship as real flows over the source and
		// target NICs and the fabric, competing with application traffic in
		// the max-min allocator — migration is charged work, not an
		// administrative sweep.
		pl.Mover = func(p *sim.Proc, from, to int, bytes int64) {
			path := w.Cluster.NetPath(from, to)
			if path == nil {
				p.Sleep(ShmLatency)
				return
			}
			p.Sleep(w.Cluster.Cfg.NetLatency)
			p.Transfer(float64(bytes), path...)
		}
		pl.SplitDone = func() {
			if sys.InvariantCheck != nil {
				sys.InvariantCheck("metasplitdone")
			}
		}
		pl.Trace = w.Trace
	}
	for n := 0; n < nNodes; n++ {
		sys.nodeMeta = append(sys.nodeMeta, kvstore.NewStore())
	}
	sys.nodeFlushCount = make([]int, nNodes)
	sys.nodeAppCount = map[string][]int{}
	sys.failedNodes = make([]bool, nNodes)

	sys.servers = make([]*Server, nServers)
	sys.serverComm = w.Launch("univistor-server", nServers, func(r *mpi.Rank) {
		s := &Server{
			sys:       sys,
			Node:      r.Node(),
			LocalIdx:  r.Rank() % cfg.ServersPerNode,
			GlobalIdx: r.Rank(),
			Rank:      r,
		}
		sys.servers[r.Rank()] = s
		s.run(r)
	}, mpi.LaunchOpts{RanksPerNode: cfg.ServersPerNode})
	if cfg.InterferenceAware {
		// Servers idle from the moment they are placed, so clients placed
		// at job launch (before the engine first runs the server loops)
		// already see their cores as borrowable (Fig. 4c).
		for _, r := range sys.serverComm.Ranks() {
			r.H.SetRunnable(false)
		}
	}
	return sys, nil
}

// Servers returns the number of server processes.
func (sys *System) Servers() int { return len(sys.servers) }

// Ring exposes the distributed metadata ring (tests and tools); nil in
// plane mode.
func (sys *System) Ring() *kvstore.Ring { return sys.ring }

// run is a server's main loop: idle until a flush request or shutdown
// arrives. With interference-aware scheduling the server parks quietly on
// its dedicated core and does not degrade co-located clients; without it,
// the server busy-polls for progress the way MPI services under CFS do,
// competing for whatever core the OS stacked it on.
func (s *Server) run(r *mpi.Rank) {
	if s.sys.Cfg.InterferenceAware {
		r.H.SetRunnable(false)
	}
	for {
		msg := r.Recv()
		switch msg.Tag {
		case "shutdown":
			return
		case "flush":
			s.doFlush(r, msg.Payload.(*flushReq))
		default:
			panic(fmt.Sprintf("core: server %d: unknown message %q", s.GlobalIdx, msg.Tag))
		}
	}
}

// Shutdown terminates the server program. Call after all client
// applications have exited (the harness's stand-in for the automatic
// connection-management teardown).
func (sys *System) Shutdown() {
	for _, s := range sys.servers {
		s.Rank.Deliver(mpi.Msg{Tag: "shutdown"})
	}
}

// fileByName returns (creating if asked) the registry entry for a logical
// file.
func (sys *System) fileByName(name string, create bool) (*fileState, error) {
	if fs, ok := sys.files[name]; ok {
		return fs, nil
	}
	if !create {
		return nil, fmt.Errorf("core: file %q does not exist", name)
	}
	sys.nextFID++
	fs := &fileState{
		fid:       sys.nextFID,
		name:      name,
		cached:    map[int]map[meta.Tier]int64{},
		procFiles: map[int]*ClientFile{},
	}
	sys.files[name] = fs
	return fs, nil
}

// homeServer hashes a file name onto the server owning its attributes.
func (sys *System) homeServer(name string) *Server {
	h := fnv.New32a()
	h.Write([]byte(name))
	return sys.servers[int(h.Sum32())%len(sys.servers)]
}

// chargeOpenOp charges a file open/close request — heavier server work
// that COC collapses to the root process.
func (sys *System) chargeOpenOp(p *sim.Proc, fromNode int, srv *Server) {
	sys.stats.OpenOps++
	sp := sys.W.Trace.Begin(p, trace.CatMeta, "open-op")
	sys.chargeOp(p, fromNode, srv, openOpTime)
	sp.End(p.Now())
}

func (sys *System) chargeOp(p *sim.Proc, fromNode int, srv *Server, opTime float64) {
	lat := sys.W.Cluster.Cfg.NetLatency
	if srv.Node == fromNode {
		lat = ShmLatency
	}
	// Serialized service: the request arrives after the transport latency,
	// waits for the server's queue to drain, then holds the server for
	// opTime.
	done := srv.ops.Serve(p.Now()+sim.Time(lat), opTime)
	p.Sleep(float64(done - p.Now()))
}

// ---------------------------------------------------------------------------
// Server-side asynchronous flush (§II-D).

type flushReq struct {
	fs *fileState
	// rangeOff/rangeLen: the server's contiguous range of the flush file.
	rangeOff int64
	rangeLen int64
	// source bytes per tier for the read leg of the pipeline.
	tierBytes map[meta.Tier]int64
	// physFrac scales each leg's moved bytes: with dedup, the fraction of
	// the flushed image without an existing physical copy (1 otherwise).
	physFrac float64
	// done is this flush's completion event (fresh per flush; the last
	// finishing server sets it).
	done *sim.Event
}

// triggerFlush builds the striping plan for the file's cached bytes and
// dispatches per-server flush requests. Called from the closing root
// client's process context; the flush itself runs in the server processes.
func (sys *System) triggerFlush(p *sim.Proc, fs *fileState) {
	if fs.flushing || fs.cachedTotal == 0 {
		return
	}
	// Flushing servers, in global order.
	var flushers []int
	for idx, tiers := range fs.cached {
		total := int64(0)
		for _, b := range tiers {
			total += b
		}
		if total > 0 {
			flushers = append(flushers, idx)
		}
	}
	if len(flushers) == 0 {
		return
	}
	sort.Ints(flushers)

	total := fs.cachedTotal
	cfg := sys.W.Cluster.Cfg
	plan, err := striping.ForPolicy(sys.Cfg.FlushStriping, striping.Params{
		MaxUnits:  sys.PFS.OSTCount(),
		Servers:   len(flushers),
		Alpha:     striping.DefaultAlpha,
		FileSize:  total,
		MaxStripe: cfg.MaxStripeSize,
	})
	if err != nil {
		panic(fmt.Sprintf("core: striping plan: %v", err))
	}
	// The conventional layout pays extent-lock contention on the shared
	// flush file.
	lockEff := 1.0
	if plan.Policy == "stripe-all" {
		lockEff = stripeAllLockEff
	}
	spec := lustre.StripeSpec{Size: plan.StripeSize, Count: plan.StripeCount, StartOST: 0}
	pfsFile, err := sys.PFS.Create("flush:"+fs.name, spec, lockEff)
	if err != nil {
		panic(fmt.Sprintf("core: creating flush file: %v", err))
	}
	fs.pfsFile = pfsFile
	fs.flushing = true
	fs.flushRemaining = len(flushers)
	fs.flushStart = p.Now()
	// Re-arm completion signalling: sim.Event is one-shot, so every flush
	// gets a fresh event. Waiters of a completed earlier flush already saw
	// theirs set; WaitFlush callers during this flush park on this one.
	fs.flushEv = &sim.Event{}
	sp := sys.W.Trace.Begin(p, trace.CatFlush, "flush-trigger")
	if sys.Cfg.Workflow {
		sys.WF.BeginFlush(p, fs.name)
	}

	// Segments grouped by their producer's server, in logical-offset order
	// (the ring returns them sorted) — the order each server drains its
	// range in, which fixes where every segment's flushed copy lands.
	recs := sys.metaCoveringFree(fs.fid, 0, fs.logicalSize)
	recsByServer := map[int][]meta.Record{}
	for _, rec := range recs {
		if pf := fs.procFiles[rec.Proc]; pf != nil {
			gi := pf.c.server.GlobalIdx
			recsByServer[gi] = append(recsByServer[gi], rec)
		}
	}
	fs.flushOff = map[int64]int64{}

	// Dedup planning: chunk the logical image, intern/release block
	// references, and scale the physical flush traffic to the bytes that
	// have no existing copy. Released blocks may die here, so the GC is
	// kicked immediately (plan and kick are park-free, so no invariant
	// sweep can observe orphaned dead blocks in between).
	physFrac := 1.0
	if sys.cas != nil {
		phys := sys.casPlanFlush(p, fs, recs)
		sys.casKickGC()
		physFrac = float64(phys) / float64(total)
		if physFrac > 1 {
			physFrac = 1
		}
	}

	// Each flusher gets a contiguous, even range of the flush file.
	for i, idx := range flushers {
		off, length := striping.ServerRange(total, len(flushers), i)
		req := &flushReq{fs: fs, rangeOff: off, rangeLen: length,
			tierBytes: fs.cached[idx], physFrac: physFrac, done: fs.flushEv}
		// Record where each of this server's segments lands inside its
		// range, so degraded reads (producer node failed after the flush)
		// address the real flushed copy. Segments laid out back to back;
		// positions are clamped into the range (its even split can differ
		// slightly from the server's exact cached bytes).
		pos := req.rangeOff
		for _, rec := range recsByServer[idx] {
			p0 := pos
			if max := req.rangeOff + req.rangeLen - rec.Size; p0 > max {
				p0 = max
			}
			if p0 < req.rangeOff {
				p0 = req.rangeOff
			}
			fs.flushOff[rec.Offset] = p0
			pos += rec.Size
		}
		srv := sys.servers[idx]
		// The trigger costs one small message per server.
		p.Sleep(cfg.NetLatency)
		srv.Rank.Deliver(mpi.Msg{Tag: "flush", Payload: req})
	}
	sp.End(p.Now())
}

// doFlush is the server-side flush of one contiguous range: a pipelined
// read-from-cache, write-to-PFS transfer per tier.
func (s *Server) doFlush(r *mpi.Rank, req *flushReq) {
	sys := s.sys
	r.H.SetRunnable(true)
	if sys.Cfg.InterferenceAware {
		sys.nodeFlushCount[s.Node]++
		if sys.nodeFlushCount[s.Node] == 1 {
			sys.W.Sched.BeginFlush(s.Node, "univistor-server")
		}
	}

	sp := sys.W.Trace.Begin(r.P, trace.CatFlush, "flush-range")
	remaining := req.rangeLen
	// Flush tier by tier, fastest first; the range split across tiers
	// mirrors the cached byte counts.
	for _, bk := range sys.chain.Backends() {
		bytes := req.tierBytes[bk.Tier()]
		if bytes <= 0 {
			continue
		}
		if bytes > remaining {
			bytes = remaining
		}
		if bk.Durable() {
			// Already persistent (spilled there); nothing to move.
			remaining -= bytes
			continue
		}
		leg := sys.W.Trace.Begin(r.P, tier.Cat(bk.Tier()), "flush-leg")
		readLeg := bk.FlushLeg(s.Node, r.H.MemPath())
		// With dedup, only the blocks without an existing physical copy
		// move: the server consults the CAS index computed at trigger time
		// and skips duplicate content on both the read and write legs.
		moved := bytes
		if req.physFrac < 1 {
			moved = int64(float64(bytes) * req.physFrac)
		}
		if moved > 0 {
			if err := req.fs.pfsFile.Write(r.P, s.Node, req.rangeOff+(req.rangeLen-remaining), moved, readLeg...); err != nil {
				panic(fmt.Sprintf("core: flush write: %v", err))
			}
		}
		leg.End(r.P.Now())
		remaining -= bytes
	}
	sp.End(r.P.Now())

	if sys.Cfg.InterferenceAware {
		sys.nodeFlushCount[s.Node]--
		if sys.nodeFlushCount[s.Node] == 0 {
			sys.W.Sched.EndFlush(s.Node, "univistor-server")
		}
		r.H.SetRunnable(false) // back to quiet event-driven idling
	}
	s.finishFlushPart(r, req)
}

// finishFlushPart retires one server's share; the last server completes the
// flush: timestamps, capacity release, workflow unlock. It sets the
// request's own completion event — the one armed when this flush was
// triggered — so a waiter can never be released by a different flush.
func (s *Server) finishFlushPart(r *mpi.Rank, req *flushReq) {
	sys := s.sys
	fs := req.fs
	fs.flushRemaining--
	if fs.flushRemaining > 0 {
		return
	}
	sys.W.Trace.Mark(r.P, trace.CatFlush, "flush-complete")
	fs.flushing = false
	fs.flushed = true
	fs.flushEnd = r.P.Now()
	fs.flushedBytes = fs.cachedTotal
	sys.stats.BytesFlushed += fs.cachedTotal
	sys.stats.Flushes++
	// The flush persists the data; the cached copies REMAIN valid (the
	// logs are a cache, not a buffer — post-flush reads still hit the fast
	// tiers), so log reservations are not released. Only the
	// pending-flush accounting resets.
	fs.cachedTotal = 0
	fs.cached = map[int]map[meta.Tier]int64{}
	if sys.Cfg.Workflow {
		sys.WF.EndFlush(r.P, fs.name)
	}
	req.done.Set()
	if sys.InvariantCheck != nil {
		sys.InvariantCheck("flush-complete")
	}
}

// Chain exposes the storage hierarchy (tests and tools).
func (sys *System) Chain() *tier.Chain { return sys.chain }

// WaitFlush blocks the process until the file's pending flush completes.
// It returns immediately if no flush is outstanding. Each flush arms its
// own completion event, so waiting during a second (or later) flush blocks
// until *that* flush finishes rather than being satisfied by the first.
func (sys *System) WaitFlush(p *sim.Proc, name string) {
	fs, ok := sys.files[name]
	if !ok || fs.flushEv == nil || (!fs.flushing && fs.flushRemaining == 0) {
		return
	}
	fs.flushEv.Wait(p)
}

// FlushStats reports the last completed flush of the file: bytes moved and
// the start/end virtual times.
func (sys *System) FlushStats(name string) (bytes int64, start, end sim.Time, ok bool) {
	fs, found := sys.files[name]
	if !found || !fs.flushed {
		return 0, 0, 0, false
	}
	return fs.flushedBytes, fs.flushStart, fs.flushEnd, true
}

// FileSize returns the logical size of a file in the unified namespace.
func (sys *System) FileSize(name string) (int64, bool) {
	fs, ok := sys.files[name]
	if !ok {
		return 0, false
	}
	return fs.logicalSize, true
}

// CachedBytes returns the bytes currently cached (unflushed) for the file.
func (sys *System) CachedBytes(name string) int64 {
	fs, ok := sys.files[name]
	if !ok {
		return 0
	}
	return fs.cachedTotal
}
