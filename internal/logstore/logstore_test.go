package logstore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"univistor/internal/meta"
)

func TestAppendsAreContiguous(t *testing.T) {
	l := NewLog(0, 1024, 64)
	var addrs []int64
	for i := 0; i < 5; i++ {
		a, ok := l.Append(100)
		if !ok {
			t.Fatalf("append %d failed", i)
		}
		addrs = append(addrs, a)
	}
	for i, a := range addrs {
		if a != int64(i)*100 {
			t.Errorf("append %d at %d, want %d", i, a, i*100)
		}
	}
}

func TestAppendSpansChunks(t *testing.T) {
	l := NewLog(0, 4096, 16)
	if _, ok := l.Append(100); !ok {
		t.Fatal("append failed")
	}
	if l.Slots() != 7 { // ceil(100/16)
		t.Errorf("allocated %d chunks, want 7", l.Slots())
	}
}

func TestCapacityExhaustionTriggersSpill(t *testing.T) {
	l := NewLog(0, 100, 10) // exactly 100 bytes
	if _, ok := l.Append(60); !ok {
		t.Fatal("first append failed")
	}
	if _, ok := l.Append(50); ok {
		t.Fatal("append beyond capacity succeeded")
	}
	// The failed append reserved nothing: 40 bytes still fit.
	if _, ok := l.Append(40); !ok {
		t.Error("append of exact remainder failed")
	}
	if l.Free() != 0 {
		t.Errorf("Free = %d, want 0", l.Free())
	}
}

func TestCapacityRoundedToChunks(t *testing.T) {
	l := NewLog(0, 105, 10)
	if l.Capacity() != 100 {
		t.Errorf("capacity = %d, want 100 (rounded down)", l.Capacity())
	}
}

func TestFreeChunkStackLIFOReuse(t *testing.T) {
	l := NewLog(0, 100, 10)
	l.Append(100) // fills chunks 0..9
	if l.FreeChunks() != 0 {
		t.Fatalf("free stack = %d, want 0", l.FreeChunks())
	}
	l.Punch(3)
	l.Punch(7)
	if l.FreeChunks() != 2 {
		t.Fatalf("free stack = %d after two punches", l.FreeChunks())
	}
	// Pristine space is exhausted (cursor at capacity), so new appends
	// reuse the punched logical slots, lowest run first: slot 3, then 7.
	// Addresses stay below the capacity, keeping Eq. 1's VA bound intact.
	a1, ok := l.Append(10)
	if !ok {
		t.Fatal("append after punch failed")
	}
	a2, ok := l.Append(10)
	if !ok {
		t.Fatal("second append after punch failed")
	}
	if a1 != 30 || a2 != 70 {
		t.Errorf("reused addresses %d, %d, want 30 and 70 (punched slots)", a1, a2)
	}
	if a1 >= l.Capacity() || a2 >= l.Capacity() {
		t.Error("reused address escaped the log capacity")
	}
	if _, ok := l.Append(10); ok {
		t.Error("append with no free space succeeded")
	}
}

func TestMultiChunkReuseNeedsContiguousRun(t *testing.T) {
	l := NewLog(0, 100, 10)
	l.Append(100)
	// Punch non-adjacent slots: a 20-byte append (2 slots) must fail.
	l.Punch(2)
	l.Punch(5)
	if _, ok := l.Append(20); ok {
		t.Fatal("append found a contiguous run where none exists")
	}
	// Punch slot 3: now 2,3 form a run.
	l.Punch(3)
	addr, ok := l.Append(20)
	if !ok {
		t.Fatal("append failed despite contiguous run")
	}
	if addr != 20 {
		t.Errorf("run address = %d, want 20 (slots 2-3)", addr)
	}
}

func TestPunchUnallocatedSlotIsNoop(t *testing.T) {
	l := NewLog(0, 100, 10)
	l.Punch(5)
	if l.FreeChunks() != 0 {
		t.Error("punching an unallocated slot pushed to the free stack")
	}
}

func TestPunchKeepsOtherSlotsLive(t *testing.T) {
	l := NewLog(0, 100, 10)
	l.Append(10)
	l.Append(10)
	l.Punch(0)
	if l.Slots() != 1 || l.Used() != 10 {
		t.Errorf("after punching slot 0: %d slots, %d live bytes, want 1 and 10", l.Slots(), l.Used())
	}
	if _, have := l.chunkTable[1]; !have {
		t.Error("punching slot 0 released slot 1")
	}
}

// Property: arbitrary interleavings of appends and punches never
// double-allocate a physical chunk and never unback a slot of a segment
// that no punch touched.
func TestLogChunkInvariantProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLog(0, 64*16, 16)
		type seg struct{ addr, size int64 }
		var live []seg
		punched := map[int64]bool{}
		for op := 0; op < 200; op++ {
			if rng.Intn(3) != 0 && l.Free() > 0 {
				size := int64(rng.Intn(40) + 1)
				if size > l.Free() {
					size = l.Free()
				}
				addr, ok := l.Append(size)
				if !ok {
					// Free bytes exist but no contiguous reusable run —
					// a legitimate refusal under slot recycling.
					continue
				}
				if addr < 0 || addr+size > l.Capacity() {
					return false // address escaped the fixed-size log
				}
				live = append(live, seg{addr, size})
			} else if len(live) > 0 {
				// Punch a random allocated slot.
				slot := int64(rng.Intn(int(l.Cursor()/16 + 1)))
				l.Punch(slot)
				punched[slot] = true
			}
			// Physical chunk table must never map two slots to one chunk.
			seen := map[int]bool{}
			for _, phys := range l.chunkTable {
				if seen[phys] {
					return false
				}
				seen[phys] = true
			}
		}
		// Every slot of a segment that no punch touched is still backed.
		for _, s := range live {
			first, last := s.addr/16, (s.addr+s.size-1)/16
			touchesPunched := false
			for slot := first; slot <= last; slot++ {
				touchesPunched = touchesPunched || punched[slot]
			}
			if touchesPunched {
				continue
			}
			for slot := first; slot <= last; slot++ {
				if _, have := l.chunkTable[slot]; !have {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// A punched slot's chunk is re-filled by a later append: the new segment
// gets the recycled physical chunk, and no two live slots share a chunk.
func TestChunkRecyclingDoesNotAliasOldData(t *testing.T) {
	l := NewLog(0, 20, 10) // two chunks
	l.Append(20)
	recycled := l.chunkTable[0]
	l.Punch(0)
	addr, ok := l.Append(10)
	if !ok {
		t.Fatal("recycled append failed")
	}
	if addr != 0 || l.chunkTable[0] != recycled || l.FreeChunks() != 0 {
		t.Errorf("recycled append at %d on chunk %d (free %d), want 0 on chunk %d (free 0)",
			addr, l.chunkTable[0], l.FreeChunks(), recycled)
	}
	if l.chunkTable[0] == l.chunkTable[1] {
		t.Error("two live slots share one physical chunk")
	}
	if l.Used() != 20 {
		t.Errorf("live bytes = %d, want 20", l.Used())
	}
}

func TestLogSetSpillWalk(t *testing.T) {
	ls, err := NewLogSet(0, [meta.NumTiers]int64{30, 0, 40, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 30 bytes fit in DRAM; the next 40 spill to BB; then PFS.
	tiers := []meta.Tier{}
	for i := 0; i < 9; i++ {
		_, tier, err := ls.Append(10)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		tiers = append(tiers, tier)
	}
	want := []meta.Tier{
		meta.TierDRAM, meta.TierDRAM, meta.TierDRAM,
		meta.TierBB, meta.TierBB, meta.TierBB, meta.TierBB,
		meta.TierPFS, meta.TierPFS,
	}
	for i := range want {
		if tiers[i] != want[i] {
			t.Errorf("append %d landed on %s, want %s (all: %v)", i, tiers[i], want[i], tiers)
		}
	}
}

func TestLogSetVAMatchesPaperLayout(t *testing.T) {
	ls, err := NewLogSet(1, [meta.NumTiers]int64{20, 0, 30, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	var vas []int64
	for i := 0; i < 6; i++ {
		va, _, err := ls.Append(10)
		if err != nil {
			t.Fatal(err)
		}
		vas = append(vas, va)
	}
	want := []int64{0, 10, 20, 30, 40, 50}
	for i := range want {
		if vas[i] != want[i] {
			t.Errorf("VA[%d] = %d, want %d", i, vas[i], want[i])
		}
	}
	// VA 30 decodes to BB tier, physical address 10.
	tier, addr, err := ls.Space().Decode(30)
	if err != nil || tier != meta.TierBB || addr != 10 {
		t.Errorf("Decode(30) = (%s, %d, %v)", tier, addr, err)
	}
}

// Property: every VA a LogSet hands out decodes back to the tier the append
// reported, inside that tier's capacity, and no two segments overlap — for
// any chain shape: a random subset of the cache tiers gets capacity (2–5
// tiers total, counting the always-present unbounded PFS terminal).
func TestLogSetRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var caps [meta.NumTiers]int64
		nCache := rng.Intn(meta.NumTiers-1) + 1 // 1–4 cache tiers + terminal
		for _, ti := range rng.Perm(meta.NumTiers - 1)[:nCache] {
			caps[ti] = int64(rng.Intn(200) + 50)
		}
		ls, err := NewLogSet(0, caps, 16)
		if err != nil {
			return false
		}
		type seg struct{ va, size int64 }
		var segs []seg
		for i := 0; i < 30; i++ {
			size := int64(rng.Intn(60) + 1)
			va, placed, err := ls.Append(size)
			if err != nil {
				return false // PFS is unbounded; appends must not fail
			}
			tier, addr, err := ls.Space().Decode(va)
			if err != nil || tier != placed || addr+size > ls.Log(tier).Capacity() {
				return false
			}
			segs = append(segs, seg{va, size})
		}
		for i, a := range segs {
			for _, b := range segs[i+1:] {
				if a.va < b.va+b.size && b.va < a.va+a.size {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
