package core

import (
	"testing"

	"univistor/internal/meta"
	"univistor/internal/mpi"
	"univistor/internal/topology"
)

func TestStatsCountersTrackOperations(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.DRAMLogBytes = 2 * mib
		cc.BBLogBytes = 8 * mib
		cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
	})
	runApp(t, w, sys, 2, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		base := int64(c.Rank().Rank()) * 8 * mib
		for i := int64(0); i < 4; i++ {
			if err := f.WriteAt(base+i*mib, 1*mib, nil); err != nil {
				t.Errorf("write: %v", err)
			}
		}
		c.Rank().Barrier()
		// Read own data (local) and the peer's (remote/BB).
		f.ReadAt(base, 1*mib)
		peer := int64(1-c.Rank().Rank()) * 8 * mib
		f.ReadAt(peer, 1*mib)
		c.Rank().Barrier()
		f.Close()
		sys.WaitFlush(c.Rank().P, "f")
	})
	st := sys.Stats()
	if st.TotalBytesWritten() != 8*mib {
		t.Errorf("bytes written = %d, want %d", st.TotalBytesWritten(), 8*mib)
	}
	if st.BytesWritten[meta.TierDRAM] != 4*mib || st.BytesWritten[meta.TierBB] != 4*mib {
		t.Errorf("per-tier writes = %v (DRAM log is 2 MiB/proc)", st.BytesWritten)
	}
	if st.Spills != 4 { // two 1 MiB segments per rank overflowed to BB
		t.Errorf("spills = %d, want 4", st.Spills)
	}
	if st.TotalBytesRead() != 4*mib {
		t.Errorf("bytes read = %d, want %d", st.TotalBytesRead(), 4*mib)
	}
	if st.BytesReadLocal == 0 {
		t.Error("no local reads counted")
	}
	if st.BytesFlushed != 8*mib || st.Flushes != 1 {
		t.Errorf("flush stats = %d bytes, %d flushes", st.BytesFlushed, st.Flushes)
	}
	if st.MetaOps == 0 || st.OpenOps == 0 {
		t.Errorf("op counters empty: %+v", st)
	}
}

// TestStatsCounterPaths pins each rare-path counter — Spills,
// Replications, Promotions — to the exact operation that increments it,
// one table case per path (plus the all-quiet baseline).
func TestStatsCounterPaths(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(*topology.Config, *Config)
		app  func(t *testing.T, sys *System, c *Client)
		want Stats // only Spills/Replications/Promotions are compared
	}{
		{
			name: "fits on fastest tier: nothing fires",
			cfg: func(tc *topology.Config, cc *Config) {
				cc.FlushOnClose = false
				cc.DRAMLogBytes = 2 * mib
				cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
			},
			app: func(t *testing.T, sys *System, c *Client) {
				f, _ := c.Open("f", mpi.WriteOnly)
				mustWrite(t, f, 0, 1*mib)
				f.Close()
			},
			want: Stats{},
		},
		{
			// Spills are counted against the spill order, not the order
			// the configuration lists the tiers in.
			name: "fits on fastest tier, tiers listed BB first",
			cfg: func(tc *topology.Config, cc *Config) {
				cc.FlushOnClose = false
				cc.DRAMLogBytes = 2 * mib
				cc.CacheTiers = []meta.Tier{meta.TierBB, meta.TierDRAM}
			},
			app: func(t *testing.T, sys *System, c *Client) {
				f, _ := c.Open("f", mpi.WriteOnly)
				mustWrite(t, f, 0, 1*mib)
				f.Close()
			},
			want: Stats{},
		},
		{
			name: "DRAM overflow spills to BB",
			cfg: func(tc *topology.Config, cc *Config) {
				cc.FlushOnClose = false
				cc.DRAMLogBytes = 1 * mib
				cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
			},
			app: func(t *testing.T, sys *System, c *Client) {
				f, _ := c.Open("f", mpi.WriteOnly)
				mustWrite(t, f, 0, 1*mib)     // fills the DRAM log
				mustWrite(t, f, 1*mib, 1*mib) // overflows → BB
				f.Close()
			},
			want: Stats{Spills: 1},
		},
		{
			name: "volatile-tier write replicates; spilled shared write does not",
			cfg: func(tc *topology.Config, cc *Config) {
				cc.FlushOnClose = false
				cc.ReplicateVolatile = true
				cc.DRAMLogBytes = 1 * mib
				cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
			},
			app: func(t *testing.T, sys *System, c *Client) {
				f, _ := c.Open("f", mpi.WriteOnly)
				mustWrite(t, f, 0, 1*mib)     // DRAM (volatile) → mirrored
				mustWrite(t, f, 1*mib, 1*mib) // BB (shared) → not mirrored
				f.Close()
			},
			want: Stats{Spills: 1, Replications: 1},
		},
		{
			name: "hot shared segment promotes to DRAM",
			cfg: func(tc *topology.Config, cc *Config) {
				cc.FlushOnClose = false
				cc.ProactivePlacement = true
				cc.PromoteAfterReads = 1
				cc.DRAMLogBytes = 1 * mib
				cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
			},
			app: func(t *testing.T, sys *System, c *Client) {
				f, _ := c.Open("f", mpi.WriteOnly)
				mustWrite(t, f, 0, 1*mib)     // fills the DRAM log
				mustWrite(t, f, 1*mib, 1*mib) // spills to BB
				// Free the DRAM chunk so the promotion has room, then heat
				// the BB segment past the threshold.
				recs := sys.metaCoveringFree(f.FID(), 1*mib, 1*mib)
				if len(recs) == 0 {
					t.Fatal("no record for the spilled segment")
				}
				sys.files["f"].procFiles[recs[0].Proc].ls.Log(meta.TierDRAM).Punch(0)
				if _, err := f.ReadAt(1*mib, 1*mib); err != nil {
					t.Errorf("read: %v", err)
				}
				f.Close()
			},
			want: Stats{Spills: 1, Promotions: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, sys := testEnv(t, tc.cfg)
			runApp(t, w, sys, 1, 1, func(c *Client) { tc.app(t, sys, c) })
			st := sys.Stats()
			if st.Spills != tc.want.Spills {
				t.Errorf("Spills = %d, want %d", st.Spills, tc.want.Spills)
			}
			if st.Replications != tc.want.Replications {
				t.Errorf("Replications = %d, want %d", st.Replications, tc.want.Replications)
			}
			if st.Promotions != tc.want.Promotions {
				t.Errorf("Promotions = %d, want %d", st.Promotions, tc.want.Promotions)
			}
		})
	}
}

func mustWrite(t *testing.T, f *ClientFile, off, size int64) {
	t.Helper()
	if err := f.WriteAt(off, size, nil); err != nil {
		t.Errorf("write at %d: %v", off, err)
	}
}

// TestStatsSnapshotIsolation takes a snapshot mid-run and checks later
// operations never leak into it (Stats() is a copy, not a view).
func TestStatsSnapshotIsolation(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		tc.BBNodes = 0 // drop the BB tier so the snapshot carries state
		cc.FlushOnClose = false
		cc.DRAMLogBytes = 4 * mib
		cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
	})
	var snap Stats
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		mustWrite(t, f, 0, 1*mib)
		snap = sys.Stats()
		mustWrite(t, f, 1*mib, 1*mib) // after the snapshot
		f.Close()
	})
	if snap.TotalBytesWritten() != 1*mib {
		t.Errorf("snapshot BytesWritten = %d, want %d (post-snapshot write leaked in)",
			snap.TotalBytesWritten(), 1*mib)
	}
	if got := sys.Stats().TotalBytesWritten(); got != 2*mib {
		t.Errorf("live BytesWritten = %d, want %d", got, 2*mib)
	}
	if len(snap.DroppedTiers) != 1 || snap.DroppedTiers[0] != meta.TierBB {
		t.Fatalf("snapshot DroppedTiers = %v, want [BB]", snap.DroppedTiers)
	}
	// Mutating the snapshot's slice must not reach the live state.
	snap.DroppedTiers[0] = meta.TierPFS
	if got := sys.Stats().DroppedTiers[0]; got != meta.TierBB {
		t.Errorf("snapshot slice aliases live DroppedTiers (now %v)", got)
	}
}

func TestStatsCountReplicationsAndPromotions(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.FlushOnClose = false
		cc.ReplicateVolatile = true
		cc.ProactivePlacement = true
		cc.PromoteAfterReads = 1
		cc.DRAMLogBytes = 2 * mib
		cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
	})
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		f.WriteAt(0, 1*mib, nil)     // DRAM → replicated
		f.WriteAt(1*mib, 2*mib, nil) // doesn't fit remaining DRAM → BB
		// Heat the BB segment; DRAM has 1 MiB free but the segment is
		// 2 MiB → promotion is attempted and skipped, then make room.
		recs := sys.metaCoveringFree(f.FID(), 1*mib, 2*mib)
		producer := sys.files["f"].procFiles[recs[0].Proc]
		producer.ls.Log(meta.TierDRAM).Punch(0)
		f.ReadAt(1*mib, 2*mib)
		f.Close()
	})
	st := sys.Stats()
	if st.Replications != 1 {
		t.Errorf("replications = %d, want 1 (only the DRAM segment)", st.Replications)
	}
	if st.Promotions != 1 {
		t.Errorf("promotions = %d, want 1", st.Promotions)
	}
}
