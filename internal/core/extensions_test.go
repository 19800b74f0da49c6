package core

// Tests for the future-work extensions (§V): volatile-tier replication and
// proactive usage-driven placement.

import (
	"bytes"
	"errors"
	"testing"

	"univistor/internal/meta"
	"univistor/internal/mpi"
	"univistor/internal/sim"
	"univistor/internal/topology"
)

func TestNodeFailureLosesUnreplicatedData(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.FlushOnClose = false
		cc.ReplicateVolatile = false
	})
	var readErr error
	runApp(t, w, sys, 2, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		if c.Rank().Rank() == 0 {
			f.WriteAt(0, 1*mib, nil) // DRAM on node 0
		}
		c.Rank().Barrier()
		if c.Rank().Rank() == 0 {
			sys.FailNode(0)
		}
		c.Rank().Barrier()
		if c.Rank().Rank() == 1 {
			_, readErr = f.ReadAt(0, 1*mib)
		}
		c.Rank().Barrier()
		f.Close()
	})
	if !errors.Is(readErr, ErrDataLost) {
		t.Errorf("read after node failure returned %v, want ErrDataLost", readErr)
	}
}

func TestReplicationSurvivesNodeFailure(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.FlushOnClose = false
		cc.ReplicateVolatile = true
	})
	payload := bytes.Repeat([]byte("r"), int(1*mib))
	var got []byte
	var readErr error
	runApp(t, w, sys, 2, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		if c.Rank().Rank() == 0 {
			f.WriteAt(0, 1*mib, payload)
		}
		c.Rank().Barrier()
		if c.Rank().Rank() == 0 {
			sys.FailNode(0)
		}
		c.Rank().Barrier()
		if c.Rank().Rank() == 1 {
			got, readErr = f.ReadAt(0, 1*mib)
		}
		c.Rank().Barrier()
		f.Close()
	})
	if readErr != nil {
		t.Fatalf("replicated read failed: %v", readErr)
	}
	if !bytes.Equal(got, payload) {
		t.Error("replica read returned wrong bytes")
	}
}

func TestFlushedCopySurvivesNodeFailure(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.ReplicateVolatile = false // rely on the PFS copy alone
	})
	var readErr error
	runApp(t, w, sys, 2, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		if c.Rank().Rank() == 0 {
			f.WriteAt(0, 1*mib, nil)
		}
		c.Rank().Barrier()
		f.Close() // triggers flush
		sys.WaitFlush(c.Rank().P, "f")
		if c.Rank().Rank() == 0 {
			sys.FailNode(0)
		}
		c.Rank().Barrier()
		rf, err := c.Open("f", mpi.ReadOnly) // collective
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		if c.Rank().Rank() == 1 {
			_, readErr = rf.ReadAt(0, 1*mib)
		}
		rf.Close()
	})
	if readErr != nil {
		t.Errorf("read from flushed copy failed: %v", readErr)
	}
}

func TestDoubleFailureLosesReplicatedData(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.FlushOnClose = false
		cc.ReplicateVolatile = true
	})
	var readErr error
	runApp(t, w, sys, 2, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		if c.Rank().Rank() == 0 {
			f.WriteAt(0, 1*mib, nil)
		}
		c.Rank().Barrier()
		if c.Rank().Rank() == 0 {
			sys.FailNode(0)
			sys.FailNode(1) // buddy gone too
		}
		c.Rank().Barrier()
		if c.Rank().Rank() == 1 {
			_, readErr = f.ReadAt(0, 1*mib)
		}
		c.Rank().Barrier()
		f.Close()
	})
	if !errors.Is(readErr, ErrDataLost) {
		t.Errorf("double failure returned %v, want ErrDataLost", readErr)
	}
}

func TestReplicationCostsTime(t *testing.T) {
	elapsed := func(replicate bool) sim.Time {
		w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
			cc.FlushOnClose = false
			cc.ReplicateVolatile = replicate
		})
		var dur sim.Time
		runApp(t, w, sys, 2, 1, func(c *Client) {
			f, _ := c.Open("f", mpi.WriteOnly)
			start := c.Rank().Now()
			f.WriteAt(int64(c.Rank().Rank())*4*mib, 4*mib, nil)
			if d := c.Rank().Now() - start; d > dur {
				dur = d
			}
			f.Close()
		})
		return dur
	}
	with := elapsed(true)
	without := elapsed(false)
	if with <= without {
		t.Errorf("replicated write (%v) not slower than plain (%v): replication must cost time", with, without)
	}
}

func TestProactivePromotionMovesHotSegmentToDRAM(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.FlushOnClose = false
		cc.ProactivePlacement = true
		cc.PromoteAfterReads = 2
		cc.DRAMLogBytes = 2 * mib // room for one promoted segment
		cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
	})
	payload := bytes.Repeat([]byte("h"), int(1*mib))
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		// Fill DRAM (2 MiB), then one segment lands on BB.
		f.WriteAt(0, 2*mib, nil)
		f.WriteAt(2*mib, 1*mib, payload)
		tierOf := func() meta.Tier {
			recs := sys.metaCoveringFree(f.FID(), 2*mib, 1*mib)
			if len(recs) != 1 {
				t.Fatalf("expected 1 record, got %d", len(recs))
			}
			tier, _, _ := sys.files["f"].procFiles[recs[0].Proc].ls.Space().Decode(recs[0].VA)
			return tier
		}
		if got := tierOf(); got != meta.TierBB {
			t.Fatalf("segment landed on %s, want BB", got)
		}
		// First read: heats the segment. Second read: crosses the
		// threshold but the DRAM log is full → no promotion.
		f.ReadAt(2*mib, 1*mib)
		f.ReadAt(2*mib, 1*mib)
		if got := tierOf(); got != meta.TierBB {
			t.Fatalf("promotion happened with a full DRAM log (tier %s)", got)
		}
		if sys.Heat("f", 2*mib) < 2 {
			t.Errorf("heat = %d, want ≥ 2", sys.Heat("f", 2*mib))
		}
		t.Logf("promotions so far: %d", sys.Stats().Promotions)
	})
}

func TestProactivePromotionWithRoom(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.FlushOnClose = false
		cc.ProactivePlacement = true
		cc.PromoteAfterReads = 2
		cc.DRAMLogBytes = 2 * mib
		cc.BBLogBytes = 4 * mib
		cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
	})
	payload := bytes.Repeat([]byte("p"), int(1*mib))
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		// 1 MiB to DRAM (leaving 1 MiB free), then force the next segment
		// to BB by writing past the DRAM log's remaining space in one go.
		f.WriteAt(0, 2*mib, nil)         // fills DRAM exactly
		f.WriteAt(2*mib, 1*mib, payload) // BB
		// Two reads promote it into... DRAM is full. Instead verify via a
		// file whose DRAM log has slack: punch the scenario directly.
		recs := sys.metaCoveringFree(f.FID(), 2*mib, 1*mib)
		producer := sys.files["f"].procFiles[recs[0].Proc]
		// Free a DRAM chunk so promotion has room.
		producer.ls.Log(meta.TierDRAM).Punch(0)
		f.ReadAt(2*mib, 1*mib)
		f.ReadAt(2*mib, 1*mib)
		recs = sys.metaCoveringFree(f.FID(), 2*mib, 1*mib)
		tier, _, _ := producer.ls.Space().Decode(recs[0].VA)
		if tier != meta.TierDRAM {
			t.Errorf("hot segment on %s after threshold reads, want DRAM", tier)
		}
		if sys.Stats().Promotions != 1 {
			t.Errorf("promotions = %d, want 1", sys.Stats().Promotions)
		}
		// Data still correct after migration.
		got, err := f.ReadAt(2*mib, 1*mib)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("post-promotion read mismatch (err %v)", err)
		}
		f.Close()
	})
}

func TestPromotionSpeedsUpSubsequentReads(t *testing.T) {
	readTimes := func(proactive bool) (first, later sim.Time) {
		w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
			cc.FlushOnClose = false
			cc.ProactivePlacement = proactive
			cc.PromoteAfterReads = 1
			cc.DRAMLogBytes = 8 * mib
			cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
		})
		runApp(t, w, sys, 1, 1, func(c *Client) {
			f, _ := c.Open("f", mpi.WriteOnly)
			f.WriteAt(0, 8*mib, nil) // fills DRAM
			f.WriteAt(8*mib, 4*mib, nil)
			// Free DRAM space so promotion can land.
			recs := sys.metaCoveringFree(f.FID(), 8*mib, 4*mib)
			producer := sys.files["f"].procFiles[recs[0].Proc]
			for slot := int64(0); slot < 6; slot++ {
				producer.ls.Log(meta.TierDRAM).Punch(slot)
			}
			t0 := c.Rank().Now()
			f.ReadAt(8*mib, 4*mib) // triggers promotion when proactive
			t1 := c.Rank().Now()
			f.ReadAt(8*mib, 4*mib)
			t2 := c.Rank().Now()
			first, later = t1-t0, t2-t1
			f.Close()
		})
		return first, later
	}
	_, laterOn := readTimes(true)
	_, laterOff := readTimes(false)
	if laterOn >= laterOff {
		t.Errorf("post-promotion read (%v) not faster than unpromoted (%v)", laterOn, laterOff)
	}
}

func TestDeleteReclaimsSegments(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.FlushOnClose = false
		cc.DRAMLogBytes = 4 * mib
		cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
	})
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		for i := int64(0); i < 4; i++ {
			f.WriteAt(i*mib, 1*mib, nil)
		}
		if sys.CachedBytes("f") != 4*mib {
			t.Fatalf("cached = %d", sys.CachedBytes("f"))
		}
		// Partial overlap deletes nothing.
		if n, _ := f.Delete(512*1024, 1*mib); n != 0 {
			t.Errorf("partial-overlap delete removed %d segments", n)
		}
		// Whole segments go.
		n, err := f.Delete(1*mib, 2*mib)
		if err != nil || n != 2 {
			t.Fatalf("delete: n=%d err=%v", n, err)
		}
		if sys.CachedBytes("f") != 2*mib {
			t.Errorf("cached = %d after delete, want %d", sys.CachedBytes("f"), 2*mib)
		}
		recs := sys.metaCoveringFree(f.FID(), 0, 4*mib)
		if len(recs) != 2 {
			t.Errorf("%d records remain, want 2", len(recs))
		}
		// The freed space is appendable again (chunk reuse).
		if err := f.WriteAt(4*mib, 2*mib, nil); err != nil {
			t.Errorf("write into reclaimed space: %v", err)
		}
		recs = sys.metaCoveringFree(f.FID(), 4*mib, 2*mib)
		if len(recs) != 1 {
			t.Fatalf("reclaim write not recorded")
		}
		tier, _, _ := sys.files["f"].procFiles[recs[0].Proc].ls.Space().Decode(recs[0].VA)
		if tier != meta.TierDRAM {
			t.Errorf("reclaim write landed on %s, want DRAM (reused chunks)", tier)
		}
		f.Close()
		// Deleting on a closed file fails.
		if _, err := f.Delete(0, 1*mib); err == nil {
			t.Error("delete on closed file accepted")
		}
	})
}
