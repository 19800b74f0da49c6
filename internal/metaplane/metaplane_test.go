package metaplane

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"univistor/internal/kvstore"
	"univistor/internal/meta"
	"univistor/internal/sim"
	"univistor/internal/trace"
)

func testConfig(shards, replicas int) Config {
	return Config{
		Shards:   shards,
		Replicas: replicas,
		Nodes:    4,
		// Small range so multi-partition coverings are easy to construct.
		RangeSize: 1 << 10,
		Costs: Costs{
			NetLatency: 1e-5,
			ShmLatency: 2e-6,
			OpTime:     3e-6,
			ApplyTime:  1e-6,
		},
	}
}

func mustPlane(t *testing.T, cfg Config) *Plane {
	t.Helper()
	pl, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return pl
}

// drive runs fn in a sim process and returns the virtual end time.
func drive(t *testing.T, fn func(p *sim.Proc)) sim.Time {
	t.Helper()
	e := sim.NewEngine()
	e.Go("test", fn)
	return e.Run()
}

func rec(fid meta.FileID, off, size int64) meta.Record {
	return meta.Record{FID: fid, Offset: off, Size: size, Proc: int(off % 7), VA: off}
}

// --- hash ring -------------------------------------------------------------

func TestHashRingDeterministicAndBalanced(t *testing.T) {
	a := NewHashRing([]int{0, 1, 2, 3})
	b := NewHashRing([]int{3, 1, 0, 2}) // insertion order must not matter
	counts := map[int]int{}
	const keys = 4096
	for i := 0; i < keys; i++ {
		h := KeyHash(meta.FileID(i%7+1), int64(i))
		oa, ob := a.Owner(h), b.Owner(h)
		if oa != ob {
			t.Fatalf("key %d: owner differs by insertion order: %d vs %d", i, oa, ob)
		}
		counts[oa]++
	}
	for s, c := range counts {
		frac := float64(c) / keys
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("shard %d owns %.1f%% of keys — unbalanced", s, 100*frac)
		}
	}
	if len(counts) != 4 {
		t.Errorf("only %d of 4 shards own keys", len(counts))
	}
}

func TestHashRingAddOnlyMovesKeysToNewShard(t *testing.T) {
	r := NewHashRing([]int{0, 1, 2})
	before := map[uint64]int{}
	for i := 0; i < 2048; i++ {
		h := KeyHash(1, int64(i))
		before[h] = r.Owner(h)
	}
	r.AddShard(3)
	moved := 0
	for h, was := range before {
		switch now := r.Owner(h); now {
		case was:
		case 3:
			moved++
		default:
			t.Fatalf("key on shard %d moved to %d, not to the added shard 3", was, now)
		}
	}
	if moved == 0 {
		t.Fatalf("adding shard 3 moved no keys")
	}
}

// --- WAL -------------------------------------------------------------------

func TestWALAppendTruncateEntriesFrom(t *testing.T) {
	var w wal
	for i := int64(1); i <= 10; i++ {
		w.append(Entry{Index: i, Kind: OpPut, Rec: rec(1, i*8, 8)})
	}
	if w.lastIndex() != 10 {
		t.Fatalf("lastIndex = %d, want 10", w.lastIndex())
	}
	es, ok := w.entriesFrom(4)
	if !ok || len(es) != 7 || es[0].Index != 4 {
		t.Fatalf("entriesFrom(4) = %d entries ok=%v", len(es), ok)
	}
	w.truncate(6)
	if w.snapIndex != 6 || len(w.entries) != 4 {
		t.Fatalf("after truncate(6): snap=%d retained=%d", w.snapIndex, len(w.entries))
	}
	if _, ok := w.entriesFrom(5); ok {
		t.Fatalf("entriesFrom(5) should report truncation")
	}
	es, ok = w.entriesFrom(7)
	if !ok || len(es) != 4 || es[0].Index != 7 {
		t.Fatalf("entriesFrom(7) after truncate = %d entries ok=%v", len(es), ok)
	}
	// Truncating beyond the end clamps.
	w.truncate(99)
	if w.snapIndex != 10 || len(w.entries) != 0 {
		t.Fatalf("truncate(99): snap=%d retained=%d", w.snapIndex, len(w.entries))
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("gap append did not panic")
		}
	}()
	w.append(Entry{Index: 13})
}

// --- plane vs single store equivalence ------------------------------------

// The plane must hold exactly the record set a single Store would, for any
// deterministic op sequence — sharding and replication change placement
// and timing, never contents.
func TestPlaneMatchesSingleStore(t *testing.T) {
	cfg := testConfig(4, 3)
	pl := mustPlane(t, cfg)
	oracle := kvstore.NewStore()
	rng := rand.New(rand.NewSource(11))

	drive(t, func(p *sim.Proc) {
		for i := 0; i < 800; i++ {
			fid := meta.FileID(rng.Intn(3) + 1)
			off := int64(rng.Intn(64)) * 256 // record size 256 ≤ RangeSize
			if rng.Intn(5) == 0 {
				pl.Delete(p, rng.Intn(cfg.Nodes), fid, off)
				oracle.Delete(meta.Key{FID: fid, Offset: off})
			} else {
				r := rec(fid, off, 256)
				pl.Put(p, rng.Intn(cfg.Nodes), r)
				oracle.Put(r)
			}
		}
	})

	if pl.Total() != oracle.Len() {
		t.Fatalf("plane holds %d records, oracle %d", pl.Total(), oracle.Len())
	}
	for _, want := range oracle.All() {
		got, ok := pl.GetLocal(want.FID, want.Offset)
		if !ok || got != want {
			t.Fatalf("record fid=%d off=%d: got %+v ok=%v, want %+v",
				want.FID, want.Offset, got, ok, want)
		}
		// Charged covering agrees with the oracle record.
		recs, _ := pl.CoveringLocal(want.FID, want.Offset, want.Size)
		found := false
		for _, r := range recs {
			if r == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("CoveringLocal missed record fid=%d off=%d", want.FID, want.Offset)
		}
	}
	if v := pl.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
}

// CoveringLocal must return the same record set as the legacy ring for the
// same contents (shards differ from servers; records don't).
func TestCoveringMatchesLegacyRing(t *testing.T) {
	cfg := testConfig(4, 1)
	pl := mustPlane(t, cfg)
	ring := kvstore.NewRing(4, cfg.RangeSize)
	rng := rand.New(rand.NewSource(5))

	drive(t, func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			off := int64(rng.Intn(200)) * 128
			size := int64(rng.Intn(8)+1) * 128
			if size > cfg.RangeSize {
				size = cfg.RangeSize
			}
			r := rec(1, off, size)
			pl.Put(p, 0, r)
			ring.Put(r)
		}
	})

	for q := 0; q < 200; q++ {
		off := int64(rng.Intn(220)) * 113
		size := int64(rng.Intn(5000) + 1)
		got, _ := pl.CoveringLocal(1, off, size)
		want, _ := ring.Covering(1, off, size)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query off=%d size=%d: plane %v != ring %v", off, size, got, want)
		}
	}
}

// --- replication, failover, recovery ---------------------------------------

func TestCrashFailoverLosesNoCommittedRecord(t *testing.T) {
	cfg := testConfig(3, 3)
	pl := mustPlane(t, cfg)

	var written []meta.Record
	drive(t, func(p *sim.Proc) {
		for i := 0; i < 120; i++ {
			r := rec(1, int64(i)*512, 512)
			pl.Put(p, i%cfg.Nodes, r)
			written = append(written, r)
			if i == 40 || i == 80 {
				for shard := 0; shard < pl.Shards(); shard++ {
					if ridx, ok := pl.CrashLeader(shard); !ok {
						t.Errorf("CrashLeader(%d) refused", shard)
					} else if i == 40 {
						// First round: recover the crashed replica later.
						defer func(shard, ridx int) {
							if !pl.Recover(shard, ridx) {
								t.Errorf("Recover(%d,%d) failed", shard, ridx)
							}
						}(shard, ridx)
					}
				}
			}
		}
	})

	for _, w := range written {
		if got, ok := pl.GetLocal(w.FID, w.Offset); !ok || got != w {
			t.Fatalf("committed record off=%d lost after failovers (ok=%v got=%+v)",
				w.Offset, ok, got)
		}
	}
	if v := pl.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariant violations after failover: %v", v)
	}
	s := pl.Stats()
	if s.Failovers != 6 {
		t.Fatalf("Failovers = %d, want 6", s.Failovers)
	}
	if s.Recoveries != 3 {
		t.Fatalf("Recoveries = %d, want 3", s.Recoveries)
	}
}

func TestCrashLeaderRefusals(t *testing.T) {
	pl := mustPlane(t, testConfig(1, 2))
	for _, shard := range []int{99, -1} {
		if _, ok := pl.CrashLeader(shard); ok {
			t.Fatalf("CrashLeader on unknown shard %d succeeded", shard)
		}
		if pl.Recover(shard, 0) {
			t.Fatalf("Recover on unknown shard %d succeeded", shard)
		}
	}
	drive(t, func(p *sim.Proc) {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "Lookup on unknown shard 99") {
				t.Errorf("Lookup on unknown shard: panic %q, want the unknown-shard message", msg)
			}
		}()
		pl.Lookup(p, 0, 99)
	})
	if _, ok := pl.CrashLeader(0); !ok {
		t.Fatalf("first CrashLeader should succeed with 2 replicas")
	}
	// Only one replica left alive: crashing it would lose the shard.
	if _, ok := pl.CrashLeader(0); ok {
		t.Fatalf("CrashLeader crashed the last alive replica")
	}
	pl2 := mustPlane(t, testConfig(1, 1))
	if _, ok := pl2.CrashLeader(0); ok {
		t.Fatalf("CrashLeader succeeded at R=1")
	}
}

func TestSnapshotTruncationAndInstallOnLaggingRecovery(t *testing.T) {
	pl := mustPlane(t, testConfig(1, 3))

	var ridx int
	drive(t, func(p *sim.Proc) {
		var ok bool
		ridx, ok = pl.CrashLeader(0)
		if !ok {
			t.Errorf("CrashLeader refused")
		}
		// Enough mutations for several compactions while the replica is down,
		// so its log is far behind the leader's snapshot horizon.
		for i := 0; i < 3*snapshotEvery; i++ {
			pl.Put(p, 0, rec(1, int64(i)*64, 64))
		}
	})
	s := pl.Stats()
	if s.PerShard[0].Snapshots == 0 {
		t.Fatalf("no snapshot compaction after %d ops", 3*snapshotEvery)
	}
	if s.PerShard[0].SnapIndex == 0 {
		t.Fatalf("leader WAL never truncated")
	}
	if !pl.Recover(0, ridx) {
		t.Fatalf("Recover failed")
	}
	if pl.Stats().SnapshotInstalls != 1 {
		t.Fatalf("SnapshotInstalls = %d, want 1 (replica log predates leader snapshot)",
			pl.Stats().SnapshotInstalls)
	}
	if v := pl.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariant violations after snapshot install: %v", v)
	}
	// The recovered replica can now win an election with full state.
	if _, ok := pl.CrashLeader(0); !ok {
		t.Fatalf("post-recovery CrashLeader refused")
	}
	if v := pl.CheckInvariants(); len(v) != 0 {
		t.Fatalf("violations after failing over to recovered replica: %v", v)
	}
}

// --- determinism and timing ------------------------------------------------

func TestPlaneDeterministicTiming(t *testing.T) {
	run := func() (sim.Time, Stats, []float64) {
		cfg := testConfig(4, 3)
		pl := mustPlane(t, cfg)
		var lat []float64 // put commit latencies, timed at the caller
		end := drive(t, func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				t0 := p.Now()
				pl.Put(p, i%cfg.Nodes, rec(1, int64(i)*256, 256))
				lat = append(lat, float64(p.Now()-t0))
				if i%3 == 0 {
					pl.Stat(p, i%cfg.Nodes, 1, int64(i)*256)
				}
			}
		})
		return end, pl.Stats(), lat
	}
	e1, s1, l1 := run()
	e2, s2, l2 := run()
	if e1 != e2 {
		t.Fatalf("end times differ: %v vs %v", e1, e2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats differ:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Fatalf("latency samples differ")
	}
	if len(l1) != 300 {
		t.Fatalf("recorded %d put latencies, want 300", len(l1))
	}
}

// Replication must cost time: R=3 commits strictly after R=1 for the same
// workload, and ops on one leader serialize.
func TestReplicationCostsTime(t *testing.T) {
	endAt := func(replicas int) sim.Time {
		pl := mustPlane(t, testConfig(1, replicas))
		return drive(t, func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				pl.Put(p, 3, rec(1, int64(i)*64, 64)) // node 3: never the leader's node
			}
		})
	}
	t1, t3 := endAt(1), endAt(3)
	if t3 <= t1 {
		t.Fatalf("R=3 (%v) should be slower than R=1 (%v)", t3, t1)
	}
}

// Every charged op lands one sample on its shard's ops series, and each
// series ends at that shard's op count.
func TestSamplerObservesPerShardOps(t *testing.T) {
	cfg := testConfig(2, 1)
	pl := mustPlane(t, cfg)
	pl.Trace = trace.New()
	drive(t, func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			pl.Put(p, 0, rec(1, int64(i)*1024, 1024))
		}
	})
	series := map[string]trace.CounterSummary{}
	samples := 0
	for _, c := range pl.Trace.Summarize(0).Counters {
		series[c.Name] = c
		samples += c.Samples
	}
	if samples != 40 {
		t.Fatalf("ops series hold %d samples, want 40 (%v)", samples, series)
	}
	for _, ss := range pl.Stats().PerShard {
		c := series[fmt.Sprintf("meta.shard%d.ops", ss.Shard)]
		if c.Final != ss.Ops || c.Peak != ss.Ops {
			t.Errorf("shard %d series %+v, want final = peak = %d ops", ss.Shard, c, ss.Ops)
		}
	}
	if len(series) != 2 {
		t.Fatalf("series = %v, want one per shard", series)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Shards: 0, Replicas: 1, Nodes: 1, RangeSize: 1},
		{Shards: 1, Replicas: 0, Nodes: 1, RangeSize: 1},
		{Shards: 1, Replicas: 1, Nodes: 0, RangeSize: 1},
		{Shards: 1, Replicas: 1, Nodes: 1, RangeSize: 0},
		{Shards: 1, Replicas: 1, Nodes: 1, RangeSize: 1, Costs: Costs{OpTime: -1}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
}

func TestStatsSnapshotShape(t *testing.T) {
	pl := mustPlane(t, testConfig(4, 3))
	drive(t, func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			pl.Put(p, 0, rec(2, int64(i)*4096, 4096))
		}
	})
	s := pl.Stats()
	if s.Shards != 4 || s.Replicas != 3 || s.Puts != 64 || len(s.PerShard) != 4 {
		t.Fatalf("stats shape wrong: %+v", s)
	}
	totOps, totRecs := int64(0), 0
	for i, ps := range s.PerShard {
		if ps.Shard != i {
			t.Fatalf("PerShard[%d].Shard = %d", i, ps.Shard)
		}
		totOps += ps.Ops
		totRecs += ps.Records
	}
	if totOps != 64 || totRecs != 64 {
		t.Fatalf("per-shard totals ops=%d recs=%d, want 64/64", totOps, totRecs)
	}
}

// Exercise a mixed chaos-like schedule across seeds for byte-stable stats.
func TestSeededChaosScheduleDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			run := func() Stats {
				cfg := testConfig(3, 3)
				pl := mustPlane(t, cfg)
				rng := rand.New(rand.NewSource(seed))
				drive(t, func(p *sim.Proc) {
					crashed := map[int]int{}
					for i := 0; i < 400; i++ {
						pl.Put(p, rng.Intn(cfg.Nodes), rec(1, int64(rng.Intn(512))*128, 128))
						if rng.Intn(50) == 0 {
							shard := rng.Intn(3)
							if _, dup := crashed[shard]; !dup {
								if ridx, ok := pl.CrashLeader(shard); ok {
									crashed[shard] = ridx
								}
							}
						}
						if rng.Intn(70) == 0 {
							for shard, ridx := range crashed {
								pl.Recover(shard, ridx)
								delete(crashed, shard)
							}
						}
					}
				})
				if v := pl.CheckInvariants(); len(v) != 0 {
					t.Fatalf("violations: %v", v)
				}
				return pl.Stats()
			}
			if s1, s2 := run(), run(); !reflect.DeepEqual(s1, s2) {
				t.Fatalf("seed %d: stats differ across runs", seed)
			}
		})
	}
}
