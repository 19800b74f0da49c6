package tier_test

// End-to-end proof of the Backend abstraction: these tests deploy the
// object-store tier purely by listing meta.TierObject in Config.CacheTiers —
// no file under internal/core mentions the tier — and check that the write,
// location-aware read, flush, and proactive-placement paths all dispatch to
// it correctly.

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"univistor/internal/core"
	"univistor/internal/meta"
	"univistor/internal/mpi"
	"univistor/internal/schedule"
	"univistor/internal/sim"
	"univistor/internal/tier"
	"univistor/internal/topology"
	"univistor/internal/trace"
)

const mib = int64(1) << 20

// testEnv mirrors core's test harness: a 2-node toy cluster with a running
// UniviStor system (duplicated here because this package tests core from
// the outside).
func testEnv(t *testing.T, mutate func(*topology.Config, *core.Config)) (*mpi.World, *core.System) {
	t.Helper()
	tc := topology.Cori()
	tc.Nodes = 2
	tc.CoresPerNode = 8
	tc.SocketsPerNode = 2
	tc.DRAMPerNode = 64 * mib
	tc.BBNodes = 2
	tc.BBCapPerNode = 256 * mib
	tc.BBStripeSize = 1 * mib
	tc.OSTs = 8
	tc.OSTCapacity = 1 << 40
	cc := core.DefaultConfig()
	cc.ChunkSize = 1 * mib
	cc.MetaRangeSize = 16 * mib
	if mutate != nil {
		mutate(&tc, &cc)
	}
	e := sim.NewEngine()
	policy := schedule.InterferenceAware
	if !cc.InterferenceAware {
		policy = schedule.CFS
	}
	w := mpi.NewWorld(e, topology.New(e, tc), policy)
	sys, err := core.NewSystem(w, cc)
	if err != nil {
		t.Fatal(err)
	}
	return w, sys
}

func runApp(t *testing.T, w *mpi.World, sys *core.System, n, perNode int, main func(*core.Client)) {
	t.Helper()
	app := w.Launch("app", n, func(r *mpi.Rank) {
		c := sys.Connect(r)
		main(c)
	}, mpi.LaunchOpts{RanksPerNode: perNode})
	w.E.Go("janitor", func(p *sim.Proc) {
		app.Wait(p)
		sys.Shutdown()
	})
	w.E.Run()
	if d := w.E.Deadlocked(); d != 0 {
		t.Fatalf("%d processes deadlocked", d)
	}
	if !app.Done() {
		t.Fatal("application did not finish")
	}
}

// The object-store tier deploys through configuration alone: writes spill
// onto it, reads come back byte-identical and are accounted as shared, and
// the flush pipeline drains it to the PFS.
func TestObjectStoreTierEndToEnd(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *core.Config) {
		cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierObject}
		cc.DRAMLogBytes = 1 * mib
		cc.TierLogBytes = map[meta.Tier]int64{meta.TierObject: 8 * mib}
	})
	if bk := sys.Chain().Backend(meta.TierObject); bk == nil || !bk.Shared() {
		t.Fatal("object-store backend missing or misdescribed in the chain")
	}

	payload := make([]byte, 3*mib)
	rand.New(rand.NewSource(7)).Read(payload)
	var got []byte
	runApp(t, w, sys, 1, 1, func(c *core.Client) {
		f, err := c.Open("f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		// 1 MiB fills the DRAM log; the next segment spills to the object
		// store.
		if err := f.WriteAt(0, 1*mib, payload[:1*mib]); err != nil {
			t.Errorf("write DRAM: %v", err)
		}
		if err := f.WriteAt(1*mib, 2*mib, payload[1*mib:]); err != nil {
			t.Errorf("write object: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		rf, err := c.Open("f", mpi.ReadOnly)
		if err != nil {
			t.Errorf("open read: %v", err)
			return
		}
		got, err = rf.ReadAt(0, 3*mib)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		rf.Close()
		sys.WaitFlush(c.Rank().P, "f")
	})

	if !bytes.Equal(got, payload) {
		t.Error("read-back mismatch through the object tier")
	}
	st := sys.Stats()
	if st.BytesWritten[meta.TierDRAM] != 1*mib || st.BytesWritten[meta.TierObject] != 2*mib {
		t.Errorf("BytesWritten DRAM/Object = %d/%d, want %d/%d",
			st.BytesWritten[meta.TierDRAM], st.BytesWritten[meta.TierObject], 1*mib, 2*mib)
	}
	if st.Spills != 1 {
		t.Errorf("Spills = %d, want 1 (the segment that missed DRAM)", st.Spills)
	}
	// Object-store reads are served from a shared device; the DRAM portion
	// is a location-aware local read.
	if st.BytesReadShared != 2*mib || st.BytesReadLocal != 1*mib {
		t.Errorf("BytesRead shared/local = %d/%d, want %d/%d",
			st.BytesReadShared, st.BytesReadLocal, 2*mib, 1*mib)
	}
	if fb, _, _, ok := sys.FlushStats("f"); !ok || fb != 3*mib {
		t.Errorf("flushed %d bytes (ok %v), want all %d cached bytes", fb, ok, 3*mib)
	}
	if len(st.DroppedTiers) != 0 {
		t.Errorf("DroppedTiers = %v, want none", st.DroppedTiers)
	}
}

// Property: any randomly chosen chain of 2–5 tiers (1–4 cache tiers plus
// the PFS terminal) stores a spilling write pattern such that every byte
// reads back identically.
func TestChainRoundTripProperty(t *testing.T) {
	pool := []meta.Tier{meta.TierDRAM, meta.TierLocalSSD, meta.TierBB, meta.TierObject}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(len(pool)) + 1
		tiers := make([]meta.Tier, 0, n)
		for _, i := range rng.Perm(len(pool))[:n] {
			tiers = append(tiers, pool[i])
		}
		w, sys := testEnv(t, func(tc *topology.Config, cc *core.Config) {
			tc.LocalSSDPerNode = 64 * mib
			tc.LocalSSDBW = 4 << 30
			cc.CacheTiers = tiers
			cc.FlushOnClose = false
			// 2 MiB per cache tier: 10 MiB of writes spill through the whole
			// chain into the terminal.
			cc.TierLogBytes = map[meta.Tier]int64{
				meta.TierDRAM: 2 * mib, meta.TierLocalSSD: 2 * mib,
				meta.TierBB: 2 * mib, meta.TierObject: 2 * mib,
			}
		})
		const segs = 10
		data := make([][]byte, segs)
		for i := range data {
			data[i] = make([]byte, mib)
			rng.Read(data[i])
		}
		ok := true
		runApp(t, w, sys, 1, 1, func(c *core.Client) {
			f, err := c.Open("f", mpi.WriteOnly)
			if err != nil {
				ok = false
				return
			}
			for i, d := range data {
				if err := f.WriteAt(int64(i)*mib, mib, d); err != nil {
					ok = false
				}
			}
			for i, d := range data {
				got, err := f.ReadAt(int64(i)*mib, mib)
				if err != nil || !bytes.Equal(got, d) {
					ok = false
				}
			}
			f.Close()
		})
		// The caches overflow by construction, so at least two tiers (one
		// cache + the terminal) must hold bytes.
		used := 0
		for _, b := range sys.Stats().BytesWritten {
			if b > 0 {
				used++
			}
		}
		return ok && used >= 2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// Proactive placement promotes a hot segment off the object tier into the
// producer's DRAM log, and the pending-flush bookkeeping follows the bytes:
// the post-promotion flush moves exactly the cached total, once.
func TestPromotionFromObjectTierBookkeeping(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *core.Config) {
		cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierObject}
		cc.DRAMLogBytes = 2 * mib
		cc.TierLogBytes = map[meta.Tier]int64{meta.TierObject: 8 * mib}
		cc.ProactivePlacement = true
		cc.PromoteAfterReads = 2
	})
	payload := make([]byte, 2*mib)
	rand.New(rand.NewSource(11)).Read(payload)
	var got []byte
	var cachedAfterPromote int64
	runApp(t, w, sys, 1, 1, func(c *core.Client) {
		f, err := c.Open("f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		f.WriteAt(0, 2*mib, nil)         // fills the DRAM log exactly
		f.WriteAt(2*mib, 2*mib, payload) // lands on the object store
		// Reclaim the first segment so the DRAM log has room to promote into.
		if n, err := f.Delete(0, 2*mib); err != nil || n != 1 {
			t.Errorf("delete = %d,%v, want 1 segment", n, err)
		}
		f.ReadAt(2*mib, 2*mib)            // heat 1: shared object read
		f.ReadAt(2*mib, 2*mib)            // heat 2: promoted to DRAM
		got, err = f.ReadAt(2*mib, 2*mib) // served locally now
		if err != nil {
			t.Errorf("post-promotion read: %v", err)
		}
		cachedAfterPromote = sys.CachedBytes("f")
		f.Close() // FlushOnClose drains the promoted bytes
		sys.WaitFlush(c.Rank().P, "f")
	})

	if n := sys.Stats().Promotions; n != 1 {
		t.Fatalf("promotions = %d, want 1", n)
	}
	if !bytes.Equal(got, payload) {
		t.Error("read-back mismatch after promotion from the object tier")
	}
	// Promotion moves bytes between tiers without changing the cached total.
	if cachedAfterPromote != 2*mib {
		t.Errorf("cached bytes after promotion = %d, want %d", cachedAfterPromote, 2*mib)
	}
	st := sys.Stats()
	// Two pre-promotion reads hit the shared object device; the third is a
	// location-aware local DRAM read.
	if st.BytesReadShared != 4*mib || st.BytesReadLocal != 2*mib {
		t.Errorf("BytesRead shared/local = %d/%d, want %d/%d",
			st.BytesReadShared, st.BytesReadLocal, 4*mib, 2*mib)
	}
	if fb, _, _, ok := sys.FlushStats("f"); !ok || fb != 2*mib {
		t.Errorf("flushed %d bytes (ok %v), want exactly the promoted %d", fb, ok, 2*mib)
	}
}

// Core records one tier:<name> span around every device call: each write
// counts in the category of the tier it landed on, each read in that of the
// tier that served it.
func TestDeviceSpansPerTier(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *core.Config) {
		cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB, meta.TierObject}
		cc.FlushOnClose = false // flush legs would add tier spans of their own
		cc.TierLogBytes = map[meta.Tier]int64{
			meta.TierDRAM: 2 * mib, meta.TierBB: 2 * mib, meta.TierObject: 2 * mib,
		}
	})
	rec := trace.New()
	w.SetTrace(rec)
	const segs = 10
	runApp(t, w, sys, 1, 1, func(c *core.Client) {
		f, err := c.Open("f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for i := int64(0); i < segs; i++ {
			if err := f.WriteAt(i*mib, mib, nil); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		for i := int64(0); i < segs; i++ {
			if _, err := f.ReadAt(i*mib, mib); err != nil {
				t.Errorf("read %d: %v", i, err)
			}
		}
		f.Close()
	})

	spans := map[string]int{}
	for _, cs := range rec.Summarize(0).Spans {
		spans[cs.Category] = cs.Count
	}
	st := sys.Stats()
	// 2 MiB logs: two segments on each cache tier, the other four spill to
	// the PFS; every segment is read back once from where it landed.
	for tr, segsOn := range map[meta.Tier]int64{
		meta.TierDRAM: 2, meta.TierBB: 2, meta.TierObject: 2, meta.TierPFS: 4,
	} {
		if got := st.BytesWritten[tr]; got != segsOn*mib {
			t.Errorf("BytesWritten[%s] = %d, want %d", tr, got, segsOn*mib)
		}
		cat := string(tier.Cat(tr))
		if got, want := spans[cat], int(2*segsOn); got != want {
			t.Errorf("%s spans = %d, want %d (one per write plus one per read)", cat, got, want)
		}
	}
}
