package sim

import "testing"

// TestStreamSeedDeterminism pins the (seed, k) → RNG-stream map. The
// additive derivation it replaced collided: (S, k) and (S+γ, k−1) produced
// the same seed, so adjacent ranks of "different" experiments mutated
// identical segment sets. The mixing must keep equal inputs equal and
// break exactly that collision family.
func TestStreamSeedDeterminism(t *testing.T) {
	const golden = int64(-0x61C8864680B583EB) // 0x9E3779B97F4A7C15 as int64
	if StreamSeed(42, 3) != StreamSeed(42, 3) {
		t.Fatal("StreamSeed not deterministic")
	}
	seeds := map[int64][2]int{}
	for _, S := range []int64{0, 1, 42, -7, golden} {
		for k := 0; k < 64; k++ {
			s := StreamSeed(S, k)
			if prev, dup := seeds[s]; dup {
				t.Fatalf("StreamSeed collision: (S=%d, k=%d) and (S=%d, k=%d) → %d",
					S, k, prev[0], prev[1], s)
			}
			seeds[s] = [2]int{int(S), k}
		}
	}
	// The specific collision family of the additive formula.
	for k := 1; k < 32; k++ {
		a := StreamSeed(100, k)
		b := StreamSeed(100+golden, k-1)
		if a == b {
			t.Fatalf("additive collision survived: (100, %d) == (100+γ, %d)", k, k-1)
		}
	}
}
