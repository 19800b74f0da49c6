package core

import (
	"testing"

	"univistor/internal/meta"
	"univistor/internal/topology"
)

// A configured cache tier whose backend is unavailable on the cluster is
// dropped — loudly: Stats.DroppedTiers records it.
func TestDroppedTierRecordedInStats(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		tc.BBNodes = 0 // no burst-buffer allocation
		cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
	})

	st := sys.Stats()
	if len(st.DroppedTiers) != 1 || st.DroppedTiers[0] != meta.TierBB {
		t.Fatalf("DroppedTiers = %v, want [BB]", st.DroppedTiers)
	}
	if len(sys.Cfg.CacheTiers) != 1 || sys.Cfg.CacheTiers[0] != meta.TierDRAM {
		t.Errorf("effective CacheTiers = %v, want [DRAM]", sys.Cfg.CacheTiers)
	}
	// The snapshot must not alias the live counter state.
	st.DroppedTiers[0] = meta.TierDRAM
	if got := sys.Stats().DroppedTiers[0]; got != meta.TierBB {
		t.Errorf("Stats snapshot aliases internal DroppedTiers slice (now %v)", got)
	}

	// The surviving hierarchy still works end to end.
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, err := c.Open("f", WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := f.WriteAt(0, 1*mib, nil); err != nil {
			t.Errorf("write: %v", err)
		}
		f.Close()
	})
	if got := sys.Stats().BytesWritten[meta.TierDRAM]; got != 1*mib {
		t.Errorf("BytesWritten[DRAM] = %d, want %d", got, 1*mib)
	}
}

// With a healthy cluster nothing is dropped.
func TestNoDroppedTiersOnFullCluster(t *testing.T) {
	_, sys := testEnv(t, nil)
	if st := sys.Stats(); len(st.DroppedTiers) != 0 {
		t.Errorf("DroppedTiers = %v, want none", st.DroppedTiers)
	}
}
