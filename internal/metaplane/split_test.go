package metaplane

import (
	"math/rand"
	"reflect"
	"testing"

	"univistor/internal/kvstore"
	"univistor/internal/meta"
	"univistor/internal/sim"
)

// A split under concurrent mutation must lose nothing, double-count
// nothing, and leave the plane exactly as if the records had been placed
// by the post-split ring all along.
func TestSplitPreservesRecordsUnderLoad(t *testing.T) {
	cfg := testConfig(2, 3)
	pl := mustPlane(t, cfg)
	oracle := kvstore.NewStore()
	rng := rand.New(rand.NewSource(99))

	e := sim.NewEngine()
	var newID int
	e.Go("client", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			fid := meta.FileID(rng.Intn(3) + 1)
			off := int64(rng.Intn(128)) * 256
			if rng.Intn(5) == 0 {
				pl.Delete(p, rng.Intn(cfg.Nodes), fid, off)
				oracle.Delete(meta.Key{FID: fid, Offset: off})
			} else {
				r := rec(fid, off, 256)
				pl.Put(p, rng.Intn(cfg.Nodes), r)
				oracle.Put(r)
			}
			if i == 100 {
				var err error
				newID, err = pl.StartSplit(e)
				if err != nil {
					t.Errorf("StartSplit: %v", err)
				}
				if _, err := pl.StartSplit(e); err == nil {
					t.Errorf("concurrent StartSplit should refuse")
				}
			}
			if v := pl.CheckInvariants(); len(v) != 0 {
				t.Fatalf("op %d: invariant violations mid-split: %v", i, v)
			}
		}
	})
	e.Run()

	if _, active := pl.Splitting(); active {
		t.Fatalf("split did not finish by engine quiescence")
	}
	if pl.Shards() != 3 {
		t.Fatalf("Shards = %d after split, want 3", pl.Shards())
	}
	if pl.Total() != oracle.Len() {
		t.Fatalf("plane holds %d records, oracle %d", pl.Total(), oracle.Len())
	}
	for _, want := range oracle.All() {
		got, ok := pl.GetLocal(want.FID, want.Offset)
		if !ok || got != want {
			t.Fatalf("record fid=%d off=%d: got %+v ok=%v, want %+v",
				want.FID, want.Offset, got, ok, want)
		}
	}
	if v := pl.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariant violations after split: %v", v)
	}
	s := pl.Stats()
	if s.Splits != 1 {
		t.Fatalf("Splits = %d, want 1", s.Splits)
	}
	if s.SplitRecords == 0 || s.SplitBytes == 0 {
		t.Fatalf("split moved no records (records=%d bytes=%d)", s.SplitRecords, s.SplitBytes)
	}
	// The new shard genuinely owns data now.
	owned := 0
	for _, ps := range s.PerShard {
		if ps.Shard == newID {
			owned = ps.Records
		}
	}
	if owned == 0 {
		t.Fatalf("split target shard %d owns no records", newID)
	}
}

// The migration is charged work: a split of a populated plane must advance
// the virtual clock, serialize on the leaders' queues, and run its batches
// through the Mover hook when one is installed.
func TestSplitChargesTimeAndUsesMover(t *testing.T) {
	endOf := func(install bool) (sim.Time, int, int64) {
		cfg := testConfig(2, 1)
		pl := mustPlane(t, cfg)
		var moves int
		var bytes int64
		if install {
			pl.Mover = func(p *sim.Proc, from, to int, b int64) {
				moves++
				bytes += b
				p.Sleep(1e-3) // a slow wire: must show up in the end time
			}
		}
		e := sim.NewEngine()
		e.Go("load", func(p *sim.Proc) {
			for i := 0; i < 600; i++ {
				pl.Put(p, 0, rec(1, int64(i)*256, 256))
			}
			if _, err := pl.StartSplit(e); err != nil {
				t.Errorf("StartSplit: %v", err)
			}
		})
		return e.Run(), moves, bytes
	}
	endPlain, _, _ := endOf(false)
	endMoved, moves, bytes := endOf(true)
	if endPlain <= 0 {
		t.Fatalf("split charged no virtual time")
	}
	if moves == 0 || bytes == 0 {
		t.Fatalf("Mover never charged a batch (moves=%d bytes=%d)", moves, bytes)
	}
	if endMoved <= endPlain {
		t.Fatalf("slow Mover end %v should exceed latency-only end %v", endMoved, endPlain)
	}
}

// Membership is frozen while a split is migrating.
func TestSplitFreezesMembership(t *testing.T) {
	cfg := testConfig(2, 1)
	pl := mustPlane(t, cfg)
	e := sim.NewEngine()
	e.Go("load", func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			pl.Put(p, 0, rec(1, int64(i)*512, 512))
		}
		if _, err := pl.StartSplit(e); err != nil {
			t.Errorf("StartSplit: %v", err)
		}
		p.Sleep(1e-6) // land inside the transfer
		if _, active := pl.Splitting(); !active {
			t.Errorf("split finished too fast to observe")
		}
		if err := pl.RemoveShard(0); err == nil {
			t.Errorf("RemoveShard mid-split should refuse")
		}
		if _, err := pl.StartSplit(e); err == nil {
			t.Errorf("a second StartSplit mid-split should refuse")
		}
	})
	e.Run()
	if v := pl.CheckInvariants(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// A leader crash inside the transfer window — on a source shard and on the
// target — must not lose a committed or migrated record.
func TestSplitSurvivesLeaderCrashInTransferWindow(t *testing.T) {
	for _, victim := range []string{"source", "target"} {
		victim := victim
		t.Run(victim, func(t *testing.T) {
			cfg := testConfig(2, 3)
			pl := mustPlane(t, cfg)
			// A visibly slow wire stretches the transfer window so the crash
			// reliably lands inside it.
			pl.Mover = func(p *sim.Proc, from, to int, bytes int64) {
				p.Sleep(5e-5 + float64(bytes)*1e-9)
			}
			oracle := kvstore.NewStore()
			e := sim.NewEngine()
			var newID int
			e.Go("load", func(p *sim.Proc) {
				for i := 0; i < 500; i++ {
					r := rec(meta.FileID(i%4+1), int64(i)*128, 128)
					pl.Put(p, i%cfg.Nodes, r)
					oracle.Put(r)
					if i == 200 {
						var err error
						newID, err = pl.StartSplit(e)
						if err != nil {
							t.Errorf("StartSplit: %v", err)
						}
					}
					if i == 230 {
						if _, active := pl.Splitting(); !active {
							t.Errorf("split already over — crash not in window")
						}
						shard := 0
						if victim == "target" {
							shard = newID
						}
						if _, ok := pl.CrashLeader(shard); !ok {
							t.Errorf("CrashLeader(%d) refused", shard)
						}
					}
					if v := pl.CheckInvariants(); len(v) != 0 {
						t.Fatalf("op %d: violations: %v", i, v)
					}
				}
			})
			e.Run()
			if pl.Total() != oracle.Len() {
				t.Fatalf("plane holds %d records, oracle %d", pl.Total(), oracle.Len())
			}
			for _, want := range oracle.All() {
				if got, ok := pl.GetLocal(want.FID, want.Offset); !ok || got != want {
					t.Fatalf("record off=%d lost (ok=%v got=%+v)", want.Offset, ok, got)
				}
			}
			if v := pl.CheckInvariants(); len(v) != 0 {
				t.Fatalf("violations after crash-in-window split: %v", v)
			}
		})
	}
}

// Two identical runs of a split under load must be byte-identical.
func TestSplitDeterministicTiming(t *testing.T) {
	run := func() (sim.Time, Stats) {
		cfg := testConfig(2, 3)
		pl := mustPlane(t, cfg)
		e := sim.NewEngine()
		e.Go("load", func(p *sim.Proc) {
			for i := 0; i < 400; i++ {
				pl.Put(p, i%cfg.Nodes, rec(1, int64(i)*256, 256))
				if i == 150 {
					if _, err := pl.StartSplit(e); err != nil {
						t.Errorf("StartSplit: %v", err)
					}
				}
				if i%3 == 0 {
					pl.Stat(p, i%cfg.Nodes, 1, int64(i)*256)
				}
			}
		})
		return e.Run(), pl.Stats()
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 {
		t.Fatalf("end times differ: %v vs %v", e1, e2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats differ:\n%+v\n%+v", s1, s2)
	}
}
