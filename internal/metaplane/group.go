package metaplane

import (
	"fmt"
	"sort"

	"univistor/internal/kvstore"
	"univistor/internal/meta"
	"univistor/internal/sim"
)

// replica is one member of a shard's replication group: a state-machine
// store, the durable mutation log, and an analytic service queue. The
// store holds the log applied through `applied`; followers apply lazily
// (at snapshot compaction or on election), so a failover genuinely
// replays the WAL suffix into the new leader's store.
type replica struct {
	shard int
	idx   int
	node  int // cluster node hosting this replica

	store   *kvstore.Store
	log     wal
	applied int64 // last log index applied to store

	// ops is the replica's service queue (analytic, like the core
	// servers').
	ops sim.Queue

	crashed bool

	// Read lease (FollowerReads): the replica may serve reads while the
	// lease epoch matches the group's and the expiry has not passed on the
	// virtual clock. leaseEpoch is -1 until the first grant.
	leaseEpoch  int64
	leaseExpiry sim.Time
}

// applyTo replays log entries (applied, upTo] into the store.
func (r *replica) applyTo(upTo int64) {
	if upTo <= r.applied {
		return
	}
	entries, ok := r.log.entriesFrom(r.applied + 1)
	if !ok {
		panic(fmt.Sprintf("metaplane: shard %d replica %d: applied %d behind snapshot %d",
			r.shard, r.idx, r.applied, r.log.snapIndex))
	}
	for _, e := range entries {
		if e.Index > upTo {
			break
		}
		switch e.Kind {
		case OpPut:
			r.store.Put(e.Rec)
		case OpDelete:
			r.store.Delete(meta.Key{FID: e.Rec.FID, Offset: e.Rec.Offset})
		}
		r.applied = e.Index
	}
}

// group is one shard's replication unit: leader + followers, the commit
// index, and the committed-record shadow ledger the no-lost-record
// invariant compares the leader's store against.
type group struct {
	id       int
	replicas []*replica
	leader   int // index into replicas
	commit   int64

	// ledger mirrors the committed record set independently of the
	// stores: updated at commit time only, never by apply/replay, so a
	// lost or mis-replayed entry shows up as a store/ledger mismatch.
	ledger map[meta.Key]bool

	// cumulative telemetry; opsSeries names the ops counter series
	ops       int64
	opsSeries string
	appended  int64
	snapshots int64

	// Lease fencing: a lease is valid only while its epoch matches. The
	// epoch bumps on every revocation — leader crash, or an arc transfer
	// window opening on this group. frozen > 0 suspends new grants (reads
	// forward to the leader) for the window's duration.
	epoch  int64
	frozen int
	rr     uint64 // round-robin cursor for leased replica selection
}

// alive returns the indexes of non-crashed replicas, ascending.
func (g *group) alive() []int {
	var out []int
	for i, r := range g.replicas {
		if !r.crashed {
			out = append(out, i)
		}
	}
	return out
}

// lead returns the current leader replica.
func (g *group) lead() *replica { return g.replicas[g.leader] }

// commitEntry runs the commit-time bookkeeping shared by charged and
// admin mutations: advance the commit index, apply on the leader, update
// the shadow ledger, and compact any replica whose log crossed the
// snapshot threshold.
func (g *group) commitEntry(e Entry) {
	g.commit = e.Index
	g.lead().applyTo(e.Index)
	key := meta.Key{FID: e.Rec.FID, Offset: e.Rec.Offset}
	switch e.Kind {
	case OpPut:
		g.ledger[key] = true
	case OpDelete:
		delete(g.ledger, key)
	}
	for _, r := range g.replicas {
		if r.crashed || len(r.log.entries) < snapshotEvery {
			continue
		}
		// Compaction applies the pending suffix (every appended entry is
		// committed by the time anything observes the group) and folds it
		// into the snapshot baseline.
		r.applyTo(r.log.lastIndex())
		r.log.truncate(r.applied)
		g.snapshots++
	}
}

// append ships entry e to the leader (already appended by the caller) and
// every alive follower, returning the sorted follower ack times.
func (g *group) ship(e Entry, tAppend sim.Time, c Costs) []sim.Time {
	var acks []sim.Time
	for i, f := range g.replicas {
		if i == g.leader || f.crashed {
			continue
		}
		applied := f.ops.Serve(tAppend+sim.Time(c.NetLatency), c.ApplyTime)
		f.log.append(e)
		f.applied = max64i(f.applied, f.log.snapIndex)
		g.appended++
		acks = append(acks, applied+sim.Time(c.NetLatency))
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
	return acks
}

// electLeader fails the current leader over to the alive replica with the
// longest log (ties to the lowest index), replaying its unapplied WAL
// suffix into its store. The caller must ensure at least one replica is
// alive.
func (g *group) electLeader() {
	best := -1
	for _, i := range g.alive() {
		if best < 0 || g.replicas[i].log.lastIndex() > g.replicas[best].log.lastIndex() {
			best = i
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("metaplane: shard %d: no alive replica to elect", g.id))
	}
	ld := g.replicas[best]
	// WAL replay: the follower applied lazily; bring its state machine up
	// to the end of its log before it serves reads.
	ld.applyTo(ld.log.lastIndex())
	g.leader = best
	g.commit = ld.log.lastIndex()
}

func max64i(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
