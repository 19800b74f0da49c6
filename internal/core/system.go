package core

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"

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
	// Cfg.MetaShards > 0. plane is the plane's store (nil in ring mode),
	// kept for the Plane accessor, the plane-only fault entry points and
	// the plane's invariant audit.
	meta       metaService
	plane      *metaplane.Plane
	metaDetail MetaOpDetail
	chain      *tier.Chain // the ordered storage hierarchy, terminal last

	// coverBufs is the free list of the covering buffers of ReadAt and
	// triggerFlush.
	coverBufs []*coverBuf

	files          map[string]*fileState
	nextFID        meta.FileID
	nextClientID   int   // the last client id handed out; ids are never reused
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
	// casBlocks, casDigests and casTouched are casPlanFlush's scratch; the
	// plan never parks, and the store copies the hashes out.
	casBlocks  []castore.Block
	casDigests []castore.Digest
	casTouched []bool

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

	// cached[serverGlobalIdx][tier] = bytes that server must flush.
	cached      map[int]tierBytes
	cachedTotal int64
	procFiles   map[int]*ClientFile // producing proc (global client id) -> handle

	// flush is the flush in flight (nil when none) and last the last one
	// that completed (nil before the first).
	flush, last *flushRun
	// flushOff places each segment some flush holds (by logical offset,
	// the metadata key) in that flush's file, so degraded reads address
	// the real range of the flushed copy. It is sorted by offset and
	// reused from flush to flush.
	flushOff []flushSlot

	// reservations are the log capacities provisioned for the file's
	// producers. Logs live for the run, so nothing releases them: a flush
	// persists the cached copies but keeps them as a read cache.
	reservations []reservation

	// heat counts reads per segment (keyed by logical offset) for the
	// proactive-placement extension.
	heat map[int64]int

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

// flushRun is one flush of a file, from its trigger until the last
// flushing server finishes its range.
type flushRun struct {
	file       *lustre.File // the flush file on the PFS
	remaining  int          // servers still flushing
	bytes      int64        // logical bytes retired, set at completion
	start, end sim.Time
	done       sim.Event // set when the last server finishes
}

// flushSlot is one segment's place in the file of the flush that holds
// it. A rewrite or delete of the segment clears run: no flush holds the
// new bytes.
type flushSlot struct {
	off, pos int64
	run      *flushRun
}

// slot returns the flush slot of the segment at logical offset off, or
// nil if no flush placed the segment.
func (fs *fileState) slot(off int64) *flushSlot {
	i, ok := slices.BinarySearchFunc(fs.flushOff, off, func(e flushSlot, off int64) int {
		return cmp.Compare(e.off, off)
	})
	if !ok {
		return nil
	}
	return &fs.flushOff[i]
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
	tp := tier.Params{ChunkSize: cfg.ChunkSize}
	tp.LogBytes[meta.TierDRAM] = cfg.DRAMLogBytes
	tp.LogBytes[meta.TierBB] = cfg.BBLogBytes
	for t, b := range cfg.TierLogBytes {
		if b > 0 {
			tp.LogBytes[t] = b
		}
	}
	chain, err := tier.Build(cfg.CacheTiers, &tier.Env{
		Cluster: w.Cluster,
		BB:      sys.BB,
		PFS:     sys.PFS,
		Cfg:     tp,
	})
	if err != nil {
		return nil, err
	}
	sys.chain = chain
	// The surviving cache tiers, in spill order, are the deployment's
	// effective config (the paper's UniviStor/DRAM mode runs without a BB
	// allocation).
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
		sys.meta = &ringMeta{sys: sys, store: kvstore.NewStore(), servers: ringServers}
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

// Segments returns the named file's metadata records in offset order,
// in either metadata mode, without charging time or counting an op.
func (sys *System) Segments(name string) []meta.Record {
	fs, ok := sys.files[name]
	if !ok {
		return nil
	}
	return sys.metaCoveringFree(fs.fid, 0, fs.logicalSize)
}

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
		cached:    map[int]tierBytes{},
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
	fs  *fileState
	run *flushRun
	// rangeOff/rangeLen: the server's contiguous range of the flush file.
	rangeOff int64
	rangeLen int64
	// physFrac scales each leg's moved bytes: with dedup, the fraction of
	// the flushed image without an existing physical copy (1 otherwise).
	physFrac float64
}

// triggerFlush builds the striping plan for the file's cached bytes and
// dispatches per-server flush requests. Called from the closing root
// client's process context; the flush itself runs in the server processes.
func (sys *System) triggerFlush(p *sim.Proc, fs *fileState) {
	if fs.flush != nil || fs.cachedTotal == 0 {
		return
	}
	// The trigger parks between servers while it still holds the covering
	// and its flushers, so it takes its own buffers from the free list.
	b := sys.getCoverBuf()
	// Flushing servers, in global order.
	for idx, tb := range fs.cached {
		if tb.total() > 0 {
			b.flushers = append(b.flushers, idx)
		}
	}
	if len(b.flushers) == 0 {
		sys.putCoverBuf(b)
		return
	}
	flushers := b.flushers
	slices.Sort(flushers)

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
	run := &flushRun{file: pfsFile, remaining: len(flushers), start: p.Now()}
	fs.flush = run
	sp := sys.W.Trace.Begin(p, trace.CatFlush, "flush-trigger")
	if sys.Cfg.Workflow {
		sys.WF.BeginFlush(p, fs.name)
	}

	recs := sys.placeFlush(b, fs, run, total)

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

	for g, idx := range flushers {
		off, length := striping.ServerRange(total, len(flushers), g)
		req := &flushReq{fs: fs, run: run, rangeOff: off, rangeLen: length, physFrac: physFrac}
		srv := sys.servers[idx]
		// The trigger costs one small message per server.
		p.Sleep(cfg.NetLatency)
		srv.Rank.Deliver(mpi.Msg{Tag: "flush", Payload: req})
	}
	sp.End(p.Now())
	sys.putCoverBuf(b)
}

// placeFlush fetches the file's covering into b.recs and places its
// segments in run's file in one pass in offset order, the order each
// server drains its range in. Each flusher of b.flushers gets a
// contiguous, even range of the file, and its segments lie back to back
// from the start of the range, each clamped into it (the even split can
// differ slightly from the server's exact cached bytes). A segment an
// earlier flush holds keeps that slot but still takes its room in the
// range; a segment whose server flushes nothing keeps its slot too. It
// returns the covering.
func (sys *System) placeFlush(b *coverBuf, fs *fileState, run *flushRun, total int64) []meta.Record {
	b.placed = append(b.placed, make([]int64, len(b.flushers))...)
	b.recs, b.idx = sys.meta.covering(b.recs, b.idx, fs.fid, 0, fs.logicalSize)
	old := fs.flushOff // sorted by offset, like the covering
	for _, rec := range b.recs {
		for len(old) > 0 && old[0].off < rec.Offset {
			old = old[1:] // the segment is gone
		}
		slot := flushSlot{off: rec.Offset}
		if len(old) > 0 && old[0].off == rec.Offset {
			slot = old[0]
		}
		if pf := fs.procFiles[rec.Proc]; pf != nil {
			if g, ok := slices.BinarySearch(b.flushers, pf.c.server.GlobalIdx); ok {
				if slot.run == nil { // else an earlier flush holds it
					off, length := striping.ServerRange(total, len(b.flushers), g)
					slot.pos = max(min(off+b.placed[g], off+length-rec.Size), off)
					slot.run = run
				}
				b.placed[g] += rec.Size
			}
		}
		if slot.run != nil {
			b.slots = append(b.slots, slot)
		}
	}
	fs.flushOff = append(fs.flushOff[:0], b.slots...)
	return b.recs
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
	// mirrors the cached byte counts, read live: bytes written or deleted
	// while the flush runs are retired with it.
	for _, bk := range sys.chain.Caches() {
		bytes := req.fs.cached[s.GlobalIdx][bk.Tier()]
		if bytes <= 0 {
			continue
		}
		if bytes > remaining {
			bytes = remaining
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
			if err := req.run.file.Write(r.P, s.Node, req.rangeOff+(req.rangeLen-remaining), moved, readLeg...); err != nil {
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
// flush: timestamps, capacity release, workflow unlock. It sets the run's
// own completion event, so a waiter can never be released by a different
// flush.
func (s *Server) finishFlushPart(r *mpi.Rank, req *flushReq) {
	sys := s.sys
	fs, run := req.fs, req.run
	run.remaining--
	if run.remaining > 0 {
		return
	}
	sys.W.Trace.Mark(r.P, trace.CatFlush, "flush-complete")
	run.end = r.P.Now()
	run.bytes = fs.cachedTotal
	fs.flush, fs.last = nil, run
	sys.stats.BytesFlushed += fs.cachedTotal
	sys.stats.Flushes++
	// The flush persists the data; the cached copies REMAIN valid (the
	// logs are a cache, not a buffer — post-flush reads still hit the fast
	// tiers), so log reservations are not released. Only the
	// pending-flush accounting resets.
	fs.cachedTotal = 0
	clear(fs.cached)
	if sys.Cfg.Workflow {
		sys.WF.EndFlush(r.P, fs.name)
	}
	run.done.Set()
	if sys.InvariantCheck != nil {
		sys.InvariantCheck("flush-complete")
	}
}

// Chain exposes the storage hierarchy (tests and tools).
func (sys *System) Chain() *tier.Chain { return sys.chain }

// WaitFlush blocks the process until the file's pending flush completes.
// It returns immediately if no flush is outstanding. Each flush has its
// own completion event, so waiting during a second (or later) flush blocks
// until *that* flush finishes rather than being satisfied by the first.
func (sys *System) WaitFlush(p *sim.Proc, name string) {
	if fs, ok := sys.files[name]; ok && fs.flush != nil {
		fs.flush.done.Wait(p)
	}
}

// FlushStats reports the last completed flush of the file: bytes moved and
// the start/end virtual times.
func (sys *System) FlushStats(name string) (bytes int64, start, end sim.Time, ok bool) {
	fs, found := sys.files[name]
	if !found || fs.last == nil {
		return 0, 0, 0, false
	}
	return fs.last.bytes, fs.last.start, fs.last.end, true
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
