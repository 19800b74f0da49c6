package metaplane

import (
	"testing"

	"univistor/internal/meta"
	"univistor/internal/sim"
	"univistor/internal/trace"
)

// With FollowerReads off (the default) no lease machinery may engage.
func TestLeaderOnlyReadsTouchNoLeases(t *testing.T) {
	cfg := testConfig(2, 3)
	pl := mustPlane(t, cfg)
	drive(t, func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			pl.Put(p, 0, rec(1, int64(i)*256, 256))
			pl.Stat(p, 1, 1, int64(i)*256)
		}
	})
	s := pl.Stats()
	if s.FollowerReads != 0 || s.LeaseGrants != 0 || s.ForwardedReads != 0 {
		t.Fatalf("lease machinery engaged with FollowerReads off: %+v", s)
	}
}

// A hot stat storm against one shard must finish sooner with leased
// follower reads than leader-only: the R replicas genuinely share load.
func TestLeasedReadsBeatLeaderOnlyOnStatStorm(t *testing.T) {
	storm := func(followerReads bool) (sim.Time, Stats) {
		cfg := testConfig(1, 3)
		cfg.FollowerReads = followerReads
		pl := mustPlane(t, cfg)
		e := sim.NewEngine()
		e.Go("seed", func(p *sim.Proc) {
			pl.Put(p, 0, rec(1, 0, 256))
		})
		for cl := 0; cl < 16; cl++ {
			cl := cl
			e.Go("storm", func(p *sim.Proc) {
				p.Sleep(1e-3)
				for i := 0; i < 300; i++ {
					if _, ok := pl.Stat(p, cl%4, 1, 0); !ok {
						t.Errorf("stat miss")
						return
					}
				}
			})
		}
		end := e.Run()
		if v := pl.CheckInvariants(); len(v) != 0 {
			t.Fatalf("violations (followerReads=%v): %v", followerReads, v)
		}
		return end, pl.Stats()
	}
	endLeader, _ := storm(false)
	endLeased, s := storm(true)
	if s.FollowerReads == 0 || s.LeaseGrants == 0 {
		t.Fatalf("no follower read served: %+v", s)
	}
	if endLeased >= endLeader {
		t.Fatalf("leased storm end %v should beat leader-only %v", endLeased, endLeader)
	}
}

// Leased reads must return exactly what the leader would.
func TestLeasedReadsMatchLeaderState(t *testing.T) {
	cfg := testConfig(2, 3)
	cfg.FollowerReads = true
	pl := mustPlane(t, cfg)
	drive(t, func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			r := rec(meta.FileID(i%3+1), int64(i)*256, 256)
			pl.Put(p, i%cfg.Nodes, r)
			got, ok := pl.Stat(p, (i+1)%cfg.Nodes, r.FID, r.Offset)
			if !ok || got != r {
				t.Fatalf("op %d: leased Stat got %+v ok=%v, want %+v", i, got, ok, r)
			}
		}
	})
	if s := pl.Stats(); s.FollowerReads == 0 {
		t.Fatalf("storm never hit a follower: %+v", s)
	}
	if v := pl.CheckInvariants(); len(v) != 0 {
		t.Fatalf("violations (incl. stale-serve check): %v", v)
	}
}

// A leader crash revokes every outstanding lease; post-failover reads must
// renew against the new leader, and nothing may serve stale.
func TestLeaseRevokedOnLeaderCrash(t *testing.T) {
	cfg := testConfig(1, 3)
	cfg.FollowerReads = true
	pl := mustPlane(t, cfg)
	drive(t, func(p *sim.Proc) {
		pl.Put(p, 0, rec(1, 0, 256))
		for i := 0; i < 20; i++ {
			pl.Stat(p, i%cfg.Nodes, 1, 0)
		}
		grantsBefore := pl.Stats().LeaseGrants
		if grantsBefore == 0 {
			t.Errorf("no lease granted before crash")
		}
		if _, ok := pl.CrashLeader(0); !ok {
			t.Errorf("CrashLeader refused")
		}
		if pl.Stats().LeaseRevocations == 0 {
			t.Errorf("crash revoked no leases")
		}
		for i := 0; i < 20; i++ {
			if _, ok := pl.Stat(p, i%cfg.Nodes, 1, 0); !ok {
				t.Errorf("post-failover stat miss")
			}
		}
		if pl.Stats().LeaseGrants == grantsBefore {
			t.Errorf("no re-grant after revocation")
		}
	})
	if v := pl.CheckInvariants(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// During a split arc's transfer window leases are frozen: follower reads
// forward to the leader, and the lease epoch advances so nothing serves
// the in-flight arc from a stale grant.
func TestLeasesFrozenDuringSplitWindow(t *testing.T) {
	cfg := testConfig(1, 3)
	cfg.FollowerReads = true
	pl := mustPlane(t, cfg)
	e := sim.NewEngine()
	e.Go("load", func(p *sim.Proc) {
		for i := 0; i < 800; i++ {
			pl.Put(p, i%cfg.Nodes, rec(1, int64(i)*256, 256))
		}
		if _, err := pl.StartSplit(e); err != nil {
			t.Errorf("StartSplit: %v", err)
		}
		// Stat storm inside the transfer: the (frozen) groups must forward.
		for i := 0; i < 200; i++ {
			if _, ok := pl.Stat(p, i%cfg.Nodes, 1, int64(i)*256); !ok {
				t.Errorf("stat miss mid-split")
			}
		}
	})
	e.Run()
	s := pl.Stats()
	if s.ForwardedReads == 0 {
		t.Fatalf("no read was forwarded during the transfer window: %+v", s)
	}
	if v := pl.CheckInvariants(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// The lease counter series end at the plane's totals and never go
// backwards (peak == final).
func TestLeaseCountersRecorded(t *testing.T) {
	cfg := testConfig(1, 3)
	cfg.FollowerReads = true
	pl := mustPlane(t, cfg)
	pl.Trace = trace.New()
	drive(t, func(p *sim.Proc) {
		pl.Put(p, 0, rec(1, 0, 256))
		for i := 0; i < 30; i++ {
			pl.Stat(p, i%cfg.Nodes, 1, 0)
		}
	})
	series := map[string]trace.CounterSummary{}
	for _, c := range pl.Trace.Summarize(0).Counters {
		series[c.Name] = c
	}
	st := pl.Stats()
	for name, want := range map[string]int64{
		"meta.lease_grants":   st.LeaseGrants,
		"meta.follower_reads": st.FollowerReads,
	} {
		c := series[name]
		if want == 0 || c.Final != want || c.Peak != want {
			t.Errorf("%s = %+v, want final = peak = %d (nonzero)", name, c, want)
		}
	}
}
