package metaplane

import (
	"strings"
	"testing"

	"univistor/internal/meta"
	"univistor/internal/sim"
)

// Regression: RemoveShard used to fold the retired shard's counters into
// fields Stats() never read, so plane-wide totals silently went backwards
// after any membership change. TotalOps (live + retired) must be monotone.
func TestStatsRetiredTotalsMonotoneAcrossRemoval(t *testing.T) {
	cfg := testConfig(3, 3)
	pl := mustPlane(t, cfg)
	drive(t, func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			pl.Put(p, 0, rec(meta.FileID(i%3+1), int64(i)*256, 256))
		}
	})
	const newID = 2
	before := pl.Stats()
	if before.TotalOps == 0 {
		t.Fatalf("no ops recorded before removal")
	}

	if err := pl.RemoveShard(newID); err != nil {
		t.Fatalf("RemoveShard: %v", err)
	}
	after := pl.Stats()
	if after.TotalOps < before.TotalOps {
		t.Fatalf("TotalOps went backwards across RemoveShard: %d -> %d",
			before.TotalOps, after.TotalOps)
	}
	if after.RetiredAppended == 0 {
		t.Fatalf("retired shard's appended entries not surfaced: %+v", after)
	}
	if after.RetiredOps != before.RetiredOps+mustShardOps(before, newID) {
		t.Fatalf("RetiredOps = %d, want %d", after.RetiredOps,
			before.RetiredOps+mustShardOps(before, newID))
	}

	// More traffic after the removal keeps the cumulative series rising.
	drive(t, func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			pl.Stat(p, 0, 1, int64(i)*256)
		}
	})
	final := pl.Stats()
	if final.TotalOps <= after.TotalOps {
		t.Fatalf("TotalOps not cumulative after removal: %d -> %d",
			after.TotalOps, final.TotalOps)
	}
}

func mustShardOps(s Stats, shard int) int64 {
	for _, ps := range s.PerShard {
		if ps.Shard == shard {
			return ps.Ops
		}
	}
	return 0
}

// Regression: CheckInvariants used to skip a shard entirely when its
// leader was crashed, so a lost committed record hid behind the crash.
// The sweep must audit the would-be leader (longest surviving log).
func TestCheckInvariantsAuditsShardWithCrashedLeader(t *testing.T) {
	cfg := testConfig(1, 3)
	pl := mustPlane(t, cfg)
	drive(t, func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			pl.Put(p, 0, rec(1, int64(i)*256, 256))
		}
	})
	g := pl.groups[0]

	// Simulate a leader that died before anyone failed the group over
	// (chaos can observe this state between the crash and the election).
	g.lead().crashed = true
	v := pl.CheckInvariants()
	if len(v) != 1 || !containsAll(v, "leader replica", "crashed") {
		t.Fatalf("healthy survivors: want exactly the crashed-leader violation, got %v", v)
	}

	// Now lose a committed suffix on every survivor: the old sweep said
	// nothing beyond "leader crashed"; the fixed one must report the loss.
	for _, i := range g.alive() {
		r := g.replicas[i]
		r.log.entries = r.log.entries[:len(r.log.entries)-1]
		if r.applied > r.log.lastIndex() {
			r.applied = r.log.lastIndex()
		}
	}
	v = pl.CheckInvariants()
	if !containsAll(v, "behind commit") {
		t.Fatalf("lost committed suffix not reported on crashed-leader shard: %v", v)
	}
	if !containsAll(v, "lost") {
		t.Fatalf("lost committed record not reported on crashed-leader shard: %v", v)
	}
}

func containsAll(violations []string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for _, v := range violations {
			if strings.Contains(v, sub) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
