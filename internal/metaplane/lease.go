package metaplane

// Leased follower reads. With Config.FollowerReads, Stat/Lookup round-
// robin across a shard's alive replicas instead of serializing on the
// leader. A follower may serve only while it holds a time-bounded lease
// from its leader: the lease pins the group epoch and expires leaseTime
// after the grant on the virtual clock, so a read is never staler than
// leaseTime. Leases are revoked — by bumping the group epoch — when the
// leader crashes and whenever a split arc's transfer window opens on the
// group; during such a window (frozen) no new lease is granted and reads
// forward to the leader.
import "univistor/internal/sim"

// leaseTime is the follower read lease duration (and therefore the
// staleness bound) on the virtual clock, in seconds.
const leaseTime = 0.01

// revokeLeases invalidates every outstanding lease on g by bumping the
// group epoch.
func (pl *Plane) revokeLeases(g *group) {
	for i, r := range g.replicas {
		if i != g.leader && r.leaseEpoch == g.epoch {
			pl.stats.LeaseRevocations++
		}
	}
	g.epoch++
}

// freezeLeases opens a no-lease window on g (a split arc's transfer
// window): outstanding leases are revoked and new grants are refused until
// the matching unfreeze.
func (pl *Plane) freezeLeases(g *group) {
	g.frozen++
	pl.revokeLeases(g)
}

func (pl *Plane) unfreezeLeases(g *group) {
	g.frozen--
}

// chargeReadAny books one read round trip — on the leader (the default),
// or, with FollowerReads, on an alive replica chosen round-robin, renewing
// its lease from the leader when needed — and returns the duration plus
// the replica whose store reflects the served state. It does not sleep:
// the caller captures the value at the routing instant, then sleeps.
func (pl *Plane) chargeReadAny(p *sim.Proc, fromNode int, g *group) (sim.Time, *replica) {
	if !pl.cfg.FollowerReads || len(g.replicas) < 2 {
		return pl.chargeRead(p, fromNode, g), g.lead()
	}
	r := g.roundRobin(g.rr)
	g.rr++
	if r.idx == g.leader {
		return pl.chargeRead(p, fromNode, g), g.lead()
	}
	if g.frozen > 0 {
		// An arc transfer window is open: leases are revoked, ownership is
		// in flight — forward to the leader.
		pl.stats.ForwardedReads++
		pl.Trace.Counter(p.Now(), "meta.forwarded_reads", pl.stats.ForwardedReads)
		return pl.chargeRead(p, fromNode, g), g.lead()
	}
	return pl.chargeFollowerRead(p, fromNode, g, r)
}

// chargeFollowerRead serves one read on follower f under its lease,
// renewing first — one follower→leader round trip, serialized on the
// leader's queue — when the lease would be invalid at service time.
func (pl *Plane) chargeFollowerRead(p *sim.Proc, fromNode int, g *group, f *replica) (sim.Time, *replica) {
	c := pl.cfg.Costs
	t0 := p.Now()
	lat := c.hop(f.node, fromNode)
	// The earliest service start on f's queue; booked below, once any
	// renewal has pushed it back.
	start := max(t0+sim.Time(lat), f.ops.Free)
	if f.leaseEpoch != g.epoch || f.leaseExpiry < start {
		// Renew. The grant lands at start + 2·hop + OpTime > start, so the
		// renewed lease is always valid at the (pushed-back) service time.
		ld := g.lead()
		hop := c.hop(ld.node, f.node)
		granted := ld.ops.Serve(start+sim.Time(hop), c.OpTime) + sim.Time(hop)
		f.leaseEpoch = g.epoch
		f.leaseExpiry = granted + sim.Time(leaseTime)
		pl.stats.LeaseGrants++
		pl.Trace.Counter(granted, "meta.lease_grants", pl.stats.LeaseGrants)
		if granted > start {
			start = granted
		}
	}
	if f.leaseEpoch != g.epoch || f.leaseExpiry < start {
		// Must be unreachable; counted (never silently served) and flagged
		// by CheckInvariants.
		pl.staleServes++
	}
	// The lease holder serves its log's state: catch the lazy applier up.
	f.applyTo(f.log.lastIndex())
	respond := f.ops.Serve(start, c.OpTime) + sim.Time(lat)
	g.ops++
	pl.stats.FollowerReads++
	pl.Trace.Counter(respond, g.opsSeries, g.ops)
	pl.Trace.Counter(respond, "meta.follower_reads", pl.stats.FollowerReads)
	return respond - t0, f
}
