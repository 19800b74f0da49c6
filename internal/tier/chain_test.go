package tier

import (
	"testing"

	"univistor/internal/meta"
)

func tiersOf(bks []Backend) []meta.Tier {
	out := make([]meta.Tier, len(bks))
	for i, b := range bks {
		out[i] = b.Tier()
	}
	return out
}

func equalTiers(a, b []meta.Tier) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The chain sorts backends into spill order and always appends the PFS
// terminal, regardless of configuration order.
func TestChainBuildOrderAndTerminal(t *testing.T) {
	ch, err := Build([]meta.Tier{meta.TierObject, meta.TierDRAM}, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	want := []meta.Tier{meta.TierDRAM, meta.TierObject, meta.TierPFS}
	if got := tiersOf(ch.Backends()); !equalTiers(got, want) {
		t.Errorf("spill order = %v, want %v", got, want)
	}
	if !equalTiers(ch.CacheTiers(), []meta.Tier{meta.TierObject, meta.TierDRAM}) {
		t.Errorf("CacheTiers = %v, want configuration order preserved", ch.CacheTiers())
	}
	if ch.Terminal().Tier() != meta.TierPFS || !ch.Terminal().Durable() {
		t.Errorf("terminal = %s (durable %v), want durable PFS",
			ch.Terminal().Tier(), ch.Terminal().Durable())
	}
	if f, ok := ch.FastestCache(); !ok || f != meta.TierObject {
		t.Errorf("FastestCache = %s,%v, want first configured tier", f, ok)
	}
	if len(ch.Dropped()) != 0 {
		t.Errorf("Dropped = %v, want none", ch.Dropped())
	}
	// Lookups outside the chain (or the tier range) are nil, not a panic.
	if ch.Backend(meta.TierBB) != nil || ch.Backend(meta.Tier(99)) != nil || ch.Backend(-1) != nil {
		t.Error("Backend() must return nil for absent or out-of-range tiers")
	}
}

// A tier whose factory reports unavailability is dropped and recorded.
func TestChainBuildDropsUnavailableBB(t *testing.T) {
	ch, err := Build([]meta.Tier{meta.TierDRAM, meta.TierBB}, &Env{BB: nil})
	if err != nil {
		t.Fatal(err)
	}
	if d := ch.Dropped(); len(d) != 1 || d[0] != meta.TierBB {
		t.Errorf("Dropped = %v, want [BB]", d)
	}
	if ch.Backend(meta.TierBB) != nil {
		t.Error("dropped tier must have no backend")
	}
	if !equalTiers(ch.CacheTiers(), []meta.Tier{meta.TierDRAM}) {
		t.Errorf("CacheTiers = %v, want [DRAM]", ch.CacheTiers())
	}
}

// An empty cache configuration still yields a working chain: just the
// terminal, and nothing counts as the fastest cache.
func TestChainBuildTerminalOnly(t *testing.T) {
	ch, err := Build(nil, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tiersOf(ch.Backends()); !equalTiers(got, []meta.Tier{meta.TierPFS}) {
		t.Errorf("backends = %v, want [PFS]", got)
	}
	if _, ok := ch.FastestCache(); ok {
		t.Error("FastestCache must report ok=false with no cache tiers")
	}
}

// Only the cache tiers of the factories table build; an out-of-range tier
// and the PFS terminal are rejected.
func TestChainBuildUnregisteredTier(t *testing.T) {
	for _, bad := range []meta.Tier{meta.Tier(9), -1, meta.TierPFS} {
		if _, err := Build([]meta.Tier{bad}, &Env{}); err == nil {
			t.Errorf("Build accepted cache tier %s", bad)
		}
	}
}

// Every backend states its visibility: node-local tiers die with their
// node, shared tiers survive it, and only the PFS terminal is durable.
func TestBackendVisibility(t *testing.T) {
	for _, tc := range []struct {
		b                         Backend
		shared, volatile, durable bool
	}{
		{&dramBackend{}, false, true, false},
		{&ssdBackend{}, false, true, false},
		{&bbBackend{}, true, false, false},
		{&objStore{}, true, false, false},
		{&pfsBackend{}, true, false, true},
	} {
		if tc.b.Shared() != tc.shared || tc.b.Volatile() != tc.volatile || tc.b.Durable() != tc.durable {
			t.Errorf("%s: shared/volatile/durable = %v/%v/%v, want %v/%v/%v", tc.b.Tier(),
				tc.b.Shared(), tc.b.Volatile(), tc.b.Durable(), tc.shared, tc.volatile, tc.durable)
		}
	}
}
