package metaplane

import (
	"fmt"
	"slices"
	"sort"

	"univistor/internal/kvstore"
	"univistor/internal/meta"
	"univistor/internal/sim"
	"univistor/internal/trace"
)

// snapshotEvery is the retained-WAL-entry threshold at which a replica
// compacts its log into a snapshot.
const snapshotEvery = 256

// recordBytes is the modeled wire size of one metadata record in a
// split-migration batch.
const recordBytes = 256

// DefaultSplitBatchRecords is the number of records one split-migration
// batch carries.
const DefaultSplitBatchRecords = 512

// Costs are the analytic service parameters of one metadata operation,
// mirroring the core servers' M/D/1-style model.
type Costs struct {
	// NetLatency / ShmLatency: client→leader transport, by co-location.
	NetLatency float64
	ShmLatency float64
	// OpTime is the leader's service time per operation (record op).
	OpTime float64
	// ApplyTime is a follower's service time to append one shipped entry.
	ApplyTime float64
}

// hop is the one-way transport latency between two nodes: shared memory
// when they are the same node, the network otherwise.
func (c Costs) hop(a, b int) float64 {
	if a == b {
		return c.ShmLatency
	}
	return c.NetLatency
}

// Config shapes a metadata plane.
type Config struct {
	Shards   int // initial shard (replication group) count
	Replicas int // replicas per shard (leader + Replicas-1 followers)
	Nodes    int // cluster nodes replicas are placed on, round-robin

	// RangeSize is the offset-range granularity records are sharded at —
	// the same granularity as the legacy partitioner, and like it bounds
	// the largest single record a Covering query can resolve.
	RangeSize int64

	// FollowerReads lets Stat/Lookup be served by a follower holding a
	// time-bounded lease from its leader (bounded staleness of leaseTime on
	// the virtual clock). Off (the default) keeps every read on the leader —
	// byte-identical to the pre-lease plane.
	FollowerReads bool

	// SplitBatchRecords is the record count per split-migration batch
	// (DefaultSplitBatchRecords if 0).
	SplitBatchRecords int

	Costs Costs
}

func (c Config) validate() error {
	switch {
	case c.Shards <= 0:
		return fmt.Errorf("metaplane: Shards must be positive, got %d", c.Shards)
	case c.Replicas <= 0:
		return fmt.Errorf("metaplane: Replicas must be positive, got %d", c.Replicas)
	case c.Nodes <= 0:
		return fmt.Errorf("metaplane: Nodes must be positive, got %d", c.Nodes)
	case c.RangeSize <= 0:
		return fmt.Errorf("metaplane: RangeSize must be positive, got %d", c.RangeSize)
	case c.Costs.NetLatency < 0 || c.Costs.ShmLatency < 0 ||
		c.Costs.OpTime < 0 || c.Costs.ApplyTime < 0:
		return fmt.Errorf("metaplane: costs must be non-negative")
	case c.SplitBatchRecords < 0:
		return fmt.Errorf("metaplane: SplitBatchRecords must be non-negative, got %d", c.SplitBatchRecords)
	}
	return nil
}

// Plane is the sharded, replicated metadata service.
type Plane struct {
	cfg  Config
	ring *HashRing

	// groups holds every shard's replication group, indexed by shard id:
	// shards are only ever added (New, StartSplit), so ids are dense.
	groups []*group

	split *splitRun // active online split, nil otherwise

	// Trace, when non-nil, records the plane's counter series: each
	// shard's cumulative charged ops (meta.shard<N>.ops) after every op,
	// and the cumulative lease grants, follower-served and leader-forwarded
	// reads, and migrated split records (meta.lease_grants,
	// meta.follower_reads, meta.forwarded_reads, meta.split_records).
	Trace *trace.Recorder

	// Mover, when set, charges a split-migration batch as a real transfer
	// in the caller's flow allocator (source leader node → target leader
	// node). nil falls back to a latency-only hop.
	Mover Mover

	// SplitDone, when set, is called (at the migrator's current virtual
	// instant) after an online split finishes installing its ring.
	SplitDone func()

	// stats holds the cumulative counters; Stats fills in the derived
	// fields (Shards, Replicas, TotalOps, PerShard).
	stats       Stats
	staleServes int64 // must stay 0: serves on an expired/revoked lease
}

// New builds a plane of cfg.Shards replication groups, each with
// cfg.Replicas replicas placed round-robin across cfg.Nodes nodes.
func New(cfg Config) (*Plane, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pl := &Plane{cfg: cfg, ring: NewHashRing(nil)}
	for i := 0; i < cfg.Shards; i++ {
		pl.ring.AddShard(pl.newGroup().id)
	}
	return pl, nil
}

// newGroup mints the next shard id and builds its replication group
// without touching the hash ring — an online split keeps the new shard
// off the ring until its arcs finish migrating. Replica k of shard s lives
// on node (s*R+k) mod N.
func (pl *Plane) newGroup() *group {
	id := len(pl.groups)
	g := &group{id: id, ledger: map[meta.Key]bool{}, opsSeries: fmt.Sprintf("meta.shard%d.ops", id)}
	for k := 0; k < pl.cfg.Replicas; k++ {
		g.replicas = append(g.replicas, &replica{
			shard:      id,
			idx:        k,
			node:       (id*pl.cfg.Replicas + k) % pl.cfg.Nodes,
			store:      kvstore.NewStore(),
			leaseEpoch: -1,
		})
	}
	pl.groups = append(pl.groups, g)
	return g
}

// group returns the replication group of a shard id that arrived from
// outside the plane, or ok=false when no such shard exists.
func (pl *Plane) group(shard int) (g *group, ok bool) {
	if shard < 0 || shard >= len(pl.groups) {
		return nil, false
	}
	return pl.groups[shard], true
}

// Shards returns the shard count, a split's target included; shard ids
// are 0 … Shards()-1.
func (pl *Plane) Shards() int { return len(pl.groups) }

// ShardFor returns the shard owning the record range containing (fid,
// offset), split-aware: mid-split, arcs route to their current owner.
func (pl *Plane) ShardFor(fid meta.FileID, offset int64) int {
	return pl.owner(pl.keyHash(fid, offset))
}

// keyHash hashes the partition range containing (fid, offset).
func (pl *Plane) keyHash(fid meta.FileID, offset int64) uint64 {
	return KeyHash(fid, offset/pl.cfg.RangeSize)
}

// owner resolves a key hash to its current owning shard. With no split
// active this is the ring owner. Mid-split, a hash in a moving arc stays
// with its source until the arc's transfer completes, then follows the
// post-split ring — so routing flips per arc, atomically on the virtual
// clock, never mid-transfer.
func (pl *Plane) owner(h uint64) int {
	if s := pl.split; s != nil {
		if a := s.arcFor(h); a != nil {
			if a.phase == arcDone {
				return s.target
			}
			return a.from
		}
	}
	return pl.ring.Owner(h)
}

// ---------------------------------------------------------------------------
// Charged operations (advance the virtual clock).

// Put replicates a record insert through its shard's group and returns the
// shard id. The caller sleeps until the op commits.
func (pl *Plane) Put(p *sim.Proc, fromNode int, rec meta.Record) int {
	h := pl.keyHash(rec.FID, rec.Offset)
	shard := pl.owner(h)
	// Mirror before propose sleeps: the mutation's state lands at the call
	// instant, and the arc may hand over while the reply is in flight.
	pl.mirror(h, OpPut, rec)
	pl.propose(p, fromNode, pl.groups[shard], OpPut, rec)
	pl.stats.Puts++
	return shard
}

// Delete replicates removal of the record keyed exactly by (fid, offset),
// reporting whether it existed, and returns the shard id.
func (pl *Plane) Delete(p *sim.Proc, fromNode int, fid meta.FileID, offset int64) (existed bool, shard int) {
	h := pl.keyHash(fid, offset)
	shard = pl.owner(h)
	g := pl.groups[shard]
	_, existed = g.lead().store.Get(meta.Key{FID: fid, Offset: offset})
	pl.mirror(h, OpDelete, meta.Record{FID: fid, Offset: offset})
	pl.propose(p, fromNode, g, OpDelete, meta.Record{FID: fid, Offset: offset})
	pl.stats.Deletes++
	return existed, shard
}

// mirror double-applies a mutation onto the split target when its key sits
// in an arc that is mid-copy: the committed write already landed on the
// arc's source (the current owner), and the copy replays it on the target
// so the handover loses nothing. The key is marked dirty so an in-flight
// migration batch never clobbers this newer value (or resurrects a
// delete). Costs nothing extra on the client's clock — the propose charged
// the round trip and log shipping; the mirror rides the migration stream.
func (pl *Plane) mirror(h uint64, kind OpKind, rec meta.Record) {
	s := pl.split
	if s == nil {
		return
	}
	a := s.arcFor(h)
	if a == nil || a.phase != arcCopying {
		return
	}
	pl.adminApply(pl.groups[s.target], kind, rec)
	a.dirty[meta.Key{FID: rec.FID, Offset: rec.Offset}] = true
	pl.stats.DoubleApplies++
}

// Stat is a charged exact-key lookup at the owning shard: on the leader,
// or — with Config.FollowerReads — on any replica holding a read lease.
// The value is captured at the routing instant (the read's linearization
// point) before the round trip is slept out — mid-split, the source may
// purge a handed-over arc while the reply is in flight.
func (pl *Plane) Stat(p *sim.Proc, fromNode int, fid meta.FileID, offset int64) (meta.Record, bool) {
	shard := pl.ShardFor(fid, offset)
	g := pl.groups[shard]
	d, r := pl.chargeReadAny(p, fromNode, g)
	rec, ok := r.store.Get(meta.Key{FID: fid, Offset: offset})
	pl.stats.Lookups++
	p.Sleep(float64(d))
	return rec, ok
}

// Lookup charges one read-side round trip against a shard — the read
// path's per-contacted-shard cost after a cost-free CoveringLocal.
func (pl *Plane) Lookup(p *sim.Proc, fromNode, shard int) {
	g, ok := pl.group(shard)
	if !ok {
		panic(fmt.Sprintf("metaplane: Lookup on unknown shard %d", shard))
	}
	d, _ := pl.chargeReadAny(p, fromNode, g)
	pl.stats.Lookups++
	p.Sleep(float64(d))
}

// propose runs the replicated-commit protocol for one mutation: transport
// to the leader, serialized leader service + WAL append, log shipping to
// every alive follower, commit once the leader plus a majority-completing
// set of follower acks are durable, and the reply hop back. The proposing
// process sleeps to the reply time. With crashed replicas the group
// commits on the acks of all alive followers if they are fewer than a
// majority — the sim crashes replicas but never partitions them, so
// availability wins (and recovery catches the replica up from the WAL).
func (pl *Plane) propose(p *sim.Proc, fromNode int, g *group, kind OpKind, rec meta.Record) {
	t0 := p.Now()
	ld := g.lead()
	c := pl.cfg.Costs
	lat := c.hop(ld.node, fromNode)
	tAppend := ld.ops.Serve(t0+sim.Time(lat), c.OpTime)

	e := Entry{Index: ld.log.lastIndex() + 1, Kind: kind, Rec: rec}
	ld.log.append(e)
	acks := g.ship(e, tAppend, c)

	// Majority of the full replica set = leader + ⌊R/2⌋ follower acks.
	need := len(g.replicas) / 2
	if need > len(acks) {
		need = len(acks)
	}
	done := tAppend
	if need > 0 && acks[need-1] > done {
		done = acks[need-1]
	}
	respond := done + sim.Time(lat)

	g.commitEntry(e)
	g.ops++
	pl.Trace.Counter(respond, g.opsSeries, g.ops)
	p.Sleep(float64(respond - t0))
}

// chargeRead books one read round trip on the shard leader's queue and
// returns its duration. The caller sleeps it out after capturing the
// served value at the routing instant.
func (pl *Plane) chargeRead(p *sim.Proc, fromNode int, g *group) sim.Time {
	t0 := p.Now()
	ld := g.lead()
	c := pl.cfg.Costs
	lat := c.hop(ld.node, fromNode)
	respond := ld.ops.Serve(t0+sim.Time(lat), c.OpTime) + sim.Time(lat)
	g.ops++
	pl.Trace.Counter(respond, g.opsSeries, g.ops)
	return respond - t0
}

// ---------------------------------------------------------------------------
// Cost-free local views (invariant sweeps, flush planning).

// GetLocal reads the record keyed exactly by (fid, offset) from the owning
// leader's store without charging time.
func (pl *Plane) GetLocal(fid meta.FileID, offset int64) (meta.Record, bool) {
	g := pl.groups[pl.ShardFor(fid, offset)]
	return g.lead().store.Get(meta.Key{FID: fid, Offset: offset})
}

// CoveringLocal appends to recs, in offset order, every record of the
// file overlapping [offset, offset+size), and to shards the ascending set
// of shards that a charged query would contact. Like the ring service it
// relies on record sizes being bounded by RangeSize, so a record
// straddling into the query starts at most one partition range back.
func (pl *Plane) CoveringLocal(recs []meta.Record, shards []int, fid meta.FileID, offset, size int64) ([]meta.Record, []int) {
	base := len(shards)
	recs, shards = kvstore.CoverRange(recs, shards, fid, offset, size, pl.cfg.RangeSize,
		func(off int64) (int, *kvstore.Store) {
			shard := pl.ShardFor(fid, off)
			return shard, pl.groups[shard].lead().store
		})
	slices.Sort(shards[base:])
	return recs, shards
}

// Total returns the committed record count across all shards. Mid-split
// the target already holds copies of records whose arcs are still owned by
// their source, so only records the target actually owns count.
func (pl *Plane) Total() int {
	n := 0
	for id, g := range pl.groups {
		st := g.lead().store
		if s := pl.split; s != nil && id == s.target {
			for _, rec := range st.All() {
				if pl.owner(pl.keyHash(rec.FID, rec.Offset)) == id {
					n++
				}
			}
			continue
		}
		n += st.Len()
	}
	return n
}

// ---------------------------------------------------------------------------
// Fault injection and recovery.

// CrashLeader crashes shard's current leader and fails the group over to
// the alive replica with the longest WAL (replaying its unapplied suffix).
// It refuses — returning ok=false — when the shard is unknown or fewer
// than two replicas are alive (the last copy must not be lost).
func (pl *Plane) CrashLeader(shard int) (crashedReplica int, ok bool) {
	g, found := pl.group(shard)
	if !found || len(g.alive()) < 2 {
		return -1, false
	}
	old := g.leader
	g.replicas[old].crashed = true
	// A dead leader can no longer fence its lessees: every outstanding
	// lease is revoked before the new leader serves.
	pl.revokeLeases(g)
	g.electLeader()
	pl.stats.Failovers++
	return old, true
}

// Recover restarts a crashed replica and catches it up from the current
// leader: the WAL suffix when the leader still retains it, otherwise a
// full snapshot install followed by the live suffix.
func (pl *Plane) Recover(shard, replicaIdx int) bool {
	g, found := pl.group(shard)
	if !found || replicaIdx < 0 || replicaIdx >= len(g.replicas) {
		return false
	}
	r := g.replicas[replicaIdx]
	if !r.crashed {
		return false
	}
	r.crashed = false
	ld := g.lead()
	entries, retained := ld.log.entriesFrom(r.log.lastIndex() + 1)
	if !retained {
		// The leader compacted past this replica's log: ship a snapshot of
		// the leader state (a fresh store) and restart the log at the
		// snapshot index.
		st := kvstore.NewStore()
		for _, rec := range ld.store.All() {
			st.Put(rec)
		}
		r.store = st
		r.log = wal{snapIndex: ld.applied}
		r.applied = ld.applied
		pl.stats.SnapshotInstalls++
		entries, _ = ld.log.entriesFrom(r.log.lastIndex() + 1)
	}
	for _, e := range entries {
		r.log.append(e)
	}
	pl.stats.Recoveries++
	return true
}

// adminApply commits one mutation through a group's WAL without charging
// virtual time — split migration lands and purges records at
// administrative instants, not on a client's clock.
func (pl *Plane) adminApply(g *group, kind OpKind, rec meta.Record) {
	e := Entry{Index: g.lead().log.lastIndex() + 1, Kind: kind, Rec: rec}
	g.lead().log.append(e)
	for i, f := range g.replicas {
		if i == g.leader || f.crashed {
			continue
		}
		f.log.append(e)
	}
	g.commitEntry(e)
}

// ---------------------------------------------------------------------------
// Invariants and telemetry.

// CheckInvariants sweeps the plane's structural invariants and returns
// human-readable violations (empty when healthy):
//   - every group's leader is alive, fully applied, and at the commit index
//   - every alive replica's WAL reaches the commit index
//   - replica apply/snapshot indexes are ordered (snap ≤ applied ≤ last)
//   - no committed record is lost: the audit replica's effective state
//     (store plus unapplied WAL suffix) matches the commit-time ledger
//   - placement: every stored record hashes to a shard entitled to hold it
//     (its owner, or the split target while the record's arc is mid-copy)
//   - no follower read was ever served on an expired or revoked lease
//
// A crashed, un-failed-over leader is itself a violation, but it does not
// shield the shard: the surviving invariants are checked against the
// replica an election would pick — the alive replica with the longest log —
// so a lost committed record is reported even while the leader is down.
func (pl *Plane) CheckInvariants() []string {
	var v []string
	for id, g := range pl.groups {
		audit := g.lead()
		if audit.crashed {
			v = append(v, fmt.Sprintf("shard %d: leader replica %d is crashed", id, g.leader))
			best := g.longest()
			if best < 0 {
				continue // every replica is down; nothing left to audit
			}
			audit = g.replicas[best]
			if audit.log.lastIndex() < g.commit {
				v = append(v, fmt.Sprintf("shard %d: longest surviving log %d behind commit %d — committed suffix lost",
					id, audit.log.lastIndex(), g.commit))
			}
		} else if audit.log.lastIndex() != g.commit || audit.applied != g.commit {
			v = append(v, fmt.Sprintf("shard %d: leader log=%d applied=%d commit=%d",
				id, audit.log.lastIndex(), audit.applied, g.commit))
		}
		for _, i := range g.alive() {
			r := g.replicas[i]
			if r.log.lastIndex() != g.commit {
				v = append(v, fmt.Sprintf("shard %d: alive replica %d WAL at %d behind commit %d",
					id, i, r.log.lastIndex(), g.commit))
			}
		}
		for i, r := range g.replicas {
			if r.applied < r.log.snapIndex || r.applied > r.log.lastIndex() {
				v = append(v, fmt.Sprintf("shard %d: replica %d applied=%d outside [snap=%d, last=%d]",
					id, i, r.applied, r.log.snapIndex, r.log.lastIndex()))
			}
		}
		eff := effectiveRecords(audit)
		if len(eff) != len(g.ledger) {
			v = append(v, fmt.Sprintf("shard %d: replica %d holds %d records, committed ledger %d",
				id, audit.idx, len(eff), len(g.ledger)))
		}
		keys := make([]meta.Key, 0, len(g.ledger))
		for k := range g.ledger {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
		for _, k := range keys {
			if _, ok := eff[k]; !ok {
				v = append(v, fmt.Sprintf("shard %d: committed record fid=%d off=%d lost",
					id, k.FID, k.Offset))
			}
		}
		held := make([]meta.Key, 0, len(eff))
		for k := range eff {
			held = append(held, k)
		}
		sort.Slice(held, func(i, j int) bool { return held[i].Less(held[j]) })
		for _, k := range held {
			rec := eff[k]
			if !pl.placementOK(id, rec) {
				v = append(v, fmt.Sprintf("shard %d: record fid=%d off=%d belongs to shard %d",
					id, rec.FID, rec.Offset, pl.ShardFor(rec.FID, rec.Offset)))
			}
		}
	}
	if pl.staleServes > 0 {
		v = append(v, fmt.Sprintf("metaplane: %d follower reads served on an expired or revoked lease",
			pl.staleServes))
	}
	return v
}

// effectiveRecords is the record set replica r would expose after applying
// its full log: the store contents overlaid with the unapplied suffix.
// Followers apply lazily, so auditing a follower must replay its tail.
func effectiveRecords(r *replica) map[meta.Key]meta.Record {
	out := make(map[meta.Key]meta.Record, r.store.Len())
	for _, rec := range r.store.All() {
		out[rec.Key()] = rec
	}
	if entries, ok := r.log.entriesFrom(r.applied + 1); ok {
		for _, e := range entries {
			k := meta.Key{FID: e.Rec.FID, Offset: e.Rec.Offset}
			switch e.Kind {
			case OpPut:
				out[k] = e.Rec
			case OpDelete:
				delete(out, k)
			}
		}
	}
	return out
}

// placementOK reports whether shard id may legitimately hold a record: it
// is the key's current owner, or it is the split target holding an
// already-copied (or mirrored) record of an arc still mid-transfer.
func (pl *Plane) placementOK(id int, rec meta.Record) bool {
	h := pl.keyHash(rec.FID, rec.Offset)
	if pl.owner(h) == id {
		return true
	}
	s := pl.split
	if s == nil || id != s.target {
		return false
	}
	a := s.arcFor(h)
	return a != nil && a.phase == arcCopying
}

// ShardStat is one shard's telemetry snapshot.
type ShardStat struct {
	Shard         int   `json:"shard"`
	LeaderReplica int   `json:"leader_replica"`
	LeaderNode    int   `json:"leader_node"`
	Ops           int64 `json:"ops"`
	CommitIndex   int64 `json:"commit_index"`
	WALEntries    int   `json:"wal_entries"`
	SnapIndex     int64 `json:"snap_index"`
	Snapshots     int64 `json:"snapshots"`
	Records       int   `json:"records"`
}

// Stats is the plane-wide telemetry snapshot. Shards are never removed,
// so RetiredOps, RetiredAppended and RetiredSnapshots are always 0; they
// stay as JSON keys because pinned report digests include them.
type Stats struct {
	Shards           int   `json:"shards"`
	Replicas         int   `json:"replicas"`
	Puts             int64 `json:"puts"`
	Deletes          int64 `json:"deletes"`
	Lookups          int64 `json:"lookups"`
	Failovers        int64 `json:"failovers"`
	Recoveries       int64 `json:"recoveries"`
	SnapshotInstalls int64 `json:"snapshot_installs"`
	Handoffs         int64 `json:"handoffs"`
	RetiredOps       int64 `json:"retired_ops"`
	RetiredAppended  int64 `json:"retired_appended"`
	RetiredSnapshots int64 `json:"retired_snapshots"`
	TotalOps         int64 `json:"total_ops"`

	Splits           int64 `json:"splits"`
	SplitRecords     int64 `json:"split_records"`
	SplitBytes       int64 `json:"split_bytes"`
	DoubleApplies    int64 `json:"double_applies"`
	LeaseGrants      int64 `json:"lease_grants"`
	LeaseRevocations int64 `json:"lease_revocations"`
	FollowerReads    int64 `json:"follower_reads"`
	ForwardedReads   int64 `json:"forwarded_reads"`

	PerShard []ShardStat `json:"per_shard"`
}

// Stats returns the current telemetry snapshot.
func (pl *Plane) Stats() Stats {
	s := pl.stats
	s.Shards = len(pl.groups)
	s.Replicas = pl.cfg.Replicas
	for _, g := range pl.groups {
		ld := g.lead()
		s.PerShard = append(s.PerShard, ShardStat{
			Shard:         g.id,
			LeaderReplica: g.leader,
			LeaderNode:    ld.node,
			Ops:           g.ops,
			CommitIndex:   g.commit,
			WALEntries:    len(ld.log.entries),
			SnapIndex:     ld.log.snapIndex,
			Snapshots:     g.snapshots,
			Records:       ld.store.Len(),
		})
		s.TotalOps += g.ops
	}
	return s
}
