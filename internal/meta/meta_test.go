package meta

import (
	"fmt"
	"testing"
	"testing/quick"
)

func space(t *testing.T, caps [NumTiers]int64) AddressSpace {
	t.Helper()
	a, err := NewAddressSpace(caps)
	if err != nil {
		t.Fatalf("NewAddressSpace: %v", err)
	}
	return a
}

func TestPaperExampleVA(t *testing.T) {
	// Fig. 2: node-local log capacity 2, shared BB log capacity 3. Segment
	// D4 sits at physical address 1 in the BB log and has VA 3.
	a := space(t, [NumTiers]int64{2, 0, 3, 0})
	va, err := a.Encode(TierBB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if va != 3 {
		t.Errorf("Encode(BB, 1) = %d, want 3 (paper Fig. 2 example)", va)
	}
	tier, addr, err := a.Decode(3)
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierBB || addr != 1 {
		t.Errorf("Decode(3) = (%s, %d), want (BB, 1)", tier, addr)
	}
}

func TestVAIdentifiesTierBoundaries(t *testing.T) {
	a := space(t, [NumTiers]int64{10, 5, 20, 0})
	cases := []struct {
		va   int64
		tier Tier
		addr int64
	}{
		{0, TierDRAM, 0},
		{9, TierDRAM, 9},
		{10, TierLocalSSD, 0},
		{14, TierLocalSSD, 4},
		{15, TierBB, 0},
		{34, TierBB, 19},
		{35, TierPFS, 0},
		{1000, TierPFS, 965},
	}
	for _, tc := range cases {
		tier, addr, err := a.Decode(tc.va)
		if err != nil {
			t.Fatalf("Decode(%d): %v", tc.va, err)
		}
		if tier != tc.tier || addr != tc.addr {
			t.Errorf("Decode(%d) = (%s, %d), want (%s, %d)", tc.va, tier, addr, tc.tier, tc.addr)
		}
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	a := space(t, [NumTiers]int64{10, 0, 5, 0})
	if _, err := a.Encode(TierDRAM, 10); err == nil {
		t.Error("Encode past DRAM capacity succeeded")
	}
	if _, err := a.Encode(TierDRAM, -1); err == nil {
		t.Error("Encode with negative address succeeded")
	}
	if _, err := a.Encode(TierPFS, 1<<40); err != nil {
		t.Errorf("PFS is unbounded, Encode failed: %v", err)
	}
}

func TestDecodeRejectsNegative(t *testing.T) {
	a := space(t, [NumTiers]int64{1, 1, 1, 0})
	if _, _, err := a.Decode(-1); err == nil {
		t.Error("Decode(-1) succeeded")
	}
}

func TestNewAddressSpaceRejectsNegativeCapacity(t *testing.T) {
	if _, err := NewAddressSpace([NumTiers]int64{-1, 0, 0, 0}); err == nil {
		t.Error("negative capacity accepted")
	}
}

// Property: Encode/Decode round-trip for every tier and in-range address.
func TestVARoundTripProperty(t *testing.T) {
	prop := func(c0, c1, c2, c3 uint16, tierRaw uint8, addrRaw uint32) bool {
		caps := [NumTiers]int64{int64(c0) + 1, int64(c1) + 1, int64(c2) + 1, int64(c3) + 1, 0}
		a, err := NewAddressSpace(caps)
		if err != nil {
			return false
		}
		tier := Tier(int(tierRaw) % NumTiers)
		var addr int64
		if tier == TierPFS {
			addr = int64(addrRaw)
		} else {
			addr = int64(addrRaw) % caps[tier]
		}
		va, err := a.Encode(tier, addr)
		if err != nil {
			return false
		}
		gt, ga, err := a.Decode(va)
		return err == nil && gt == tier && ga == addr
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Guard: every tier in [0, NumTiers) has a dedicated name in String(), and
// out-of-range values fall back to "tier(N)". A future tier addition that
// bumps the enum but forgets the String() switch trips this immediately.
func TestTierStringCoversAllTiers(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < NumTiers; i++ {
		s := Tier(i).String()
		if s == fmt.Sprintf("tier(%d)", i) {
			t.Errorf("Tier(%d).String() = %q: in-range tier fell through to the default case", i, s)
		}
		if seen[s] {
			t.Errorf("duplicate tier name %q", s)
		}
		seen[s] = true
	}
	for _, tr := range []Tier{Tier(NumTiers), Tier(NumTiers + 7), Tier(-1)} {
		want := fmt.Sprintf("tier(%d)", int(tr))
		if got := tr.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", int(tr), got, want)
		}
	}
}
