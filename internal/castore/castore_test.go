package castore

import (
	"math"
	"math/rand"
	"testing"
)

// dropFile releases every block of the file, leaving its map all holes.
func dropFile(s *Store, file string) { s.DropRange(file, 0, math.MaxInt64) }

// mustClean fails the test if any invariant is violated.
func mustClean(t *testing.T, s *Store) {
	t.Helper()
	if v := s.CheckInvariants(); len(v) > 0 {
		t.Fatalf("invariants violated: %v", v)
	}
}

func TestInternDedupAndRelease(t *testing.T) {
	s := New(4)
	// Two files mapping the same two blocks: physical bytes charged once.
	blocks := []Block{{Index: 0, Hash: 11, Size: 4}, {Index: 1, Hash: 22, Size: 2}}
	if got := s.UpdateFile("a", blocks); got != 6 {
		t.Fatalf("first intern: physical = %d, want 6", got)
	}
	if got := s.UpdateFile("b", blocks); got != 0 {
		t.Fatalf("dedup intern: physical = %d, want 0", got)
	}
	mustClean(t, s)
	st := s.Stats()
	if st.LiveBytes != 6 || st.RefBytes != 12 || st.DedupHits != 2 {
		t.Fatalf("stats after dedup: %+v", st)
	}

	// Overwriting file b's block 0 releases hash 11 once; still referenced
	// by file a, so nothing dies.
	if got := s.UpdateFile("b", []Block{{Index: 0, Hash: 33, Size: 4}}); got != 4 {
		t.Fatalf("overwrite intern: physical = %d, want 4", got)
	}
	if s.PendingBytes() != 0 {
		t.Fatalf("pending = %d after releasing a still-referenced block", s.PendingBytes())
	}
	mustClean(t, s)

	// Dropping file a entirely kills 11 (last ref) but not 22 (b holds it).
	dropFile(s, "a")
	if s.PendingBytes() != 4 {
		t.Fatalf("pending = %d, want 4 (block 11 dead)", s.PendingBytes())
	}
	mustClean(t, s)

	n, bytes := s.CollectBatch(1 << 20)
	if n != 1 || bytes != 4 {
		t.Fatalf("collect = (%d, %d), want (1, 4)", n, bytes)
	}
	mustClean(t, s)
	if st := s.Stats(); st.FreedBytes != 4 || st.InternedBytes != 10 {
		t.Fatalf("conservation after GC: %+v", st)
	}
}

func TestResurrection(t *testing.T) {
	s := New(8)
	s.UpdateFile("f", []Block{{Index: 0, Hash: 7, Size: 8}})
	// Kill it, then bring the same content back before collecting.
	s.UpdateFile("f", []Block{{Index: 0, Hash: 9, Size: 8}})
	if s.PendingBytes() != 8 {
		t.Fatalf("pending = %d, want 8", s.PendingBytes())
	}
	if got := s.UpdateFile("g", []Block{{Index: 0, Hash: 7, Size: 8}}); got != 0 {
		t.Fatalf("resurrection cost physical %d, want 0 (copy still on disk)", got)
	}
	mustClean(t, s)
	// The stale queue entry must not free the resurrected block.
	if n, _ := s.CollectBatch(1 << 20); n != 0 {
		t.Fatalf("collected %d blocks, want 0 (only stale entries queued)", n)
	}
	mustClean(t, s)

	// Die again after resurrection: exactly one requeue, one free.
	dropFile(s, "g")
	n, bytes := s.CollectBatch(1 << 20)
	if n != 1 || bytes != 8 {
		t.Fatalf("collect after re-death = (%d, %d), want (1, 8)", n, bytes)
	}
	mustClean(t, s)
}

func TestDropRange(t *testing.T) {
	s := New(4)
	s.UpdateFile("f", []Block{
		{Index: 0, Hash: 1, Size: 4}, {Index: 1, Hash: 2, Size: 4},
		{Index: 2, Hash: 3, Size: 4}, {Index: 3, Hash: 4, Size: 4},
	})
	if got := s.DropRange("f", 1, 2); got != 2 {
		t.Fatalf("dropped %d, want 2", got)
	}
	if got := s.DropRange("f", 1, 2); got != 0 {
		t.Fatalf("re-drop dropped %d, want 0 (already holes)", got)
	}
	// Out-of-range and negative indexes are ignored.
	if got := s.DropRange("f", -5, 100); got != 2 {
		t.Fatalf("full drop dropped %d, want the 2 remaining", got)
	}
	if got := s.DropRange("missing", 0, 10); got != 0 {
		t.Fatalf("drop on unknown file dropped %d", got)
	}
	mustClean(t, s)
	if s.PendingBytes() != 16 {
		t.Fatalf("pending = %d, want 16", s.PendingBytes())
	}
}

func TestCollectBatchBounds(t *testing.T) {
	s := New(4)
	var blocks []Block
	for i := int64(0); i < 10; i++ {
		blocks = append(blocks, Block{Index: i, Hash: uint64(100 + i), Size: 4})
	}
	s.UpdateFile("f", blocks)
	dropFile(s, "f")
	// Batching at 8 bytes frees two blocks per call, FIFO order.
	total := 0
	for {
		n, bytes := s.CollectBatch(8)
		if n == 0 {
			break
		}
		if bytes > 8 {
			t.Fatalf("batch freed %d bytes, cap was 8", bytes)
		}
		total += n
		mustClean(t, s)
	}
	if total != 10 {
		t.Fatalf("freed %d blocks total, want 10", total)
	}
	if st := s.Stats(); st.GCBatches != 5 {
		t.Fatalf("GC batches = %d, want 5", st.GCBatches)
	}
}

func TestDigest(t *testing.T) {
	if HashBytes(nil) == Hole || NewDigest().Word(0).Sum() == Hole {
		t.Fatal("fingerprints must never collide with the hole marker")
	}
	if HashBytes([]byte("a")) == HashBytes([]byte("b")) {
		t.Fatal("distinct payloads hashed equal")
	}
	if NewDigest().Word(1).Word(2).Sum() == NewDigest().Word(2).Word(1).Sum() {
		t.Fatal("digest must be order-sensitive")
	}
	if got, want := HashBytes([]byte("abc")), HashBytes([]byte("abc")); got != want {
		t.Fatal("digest must be deterministic")
	}
}

// TestRandomizedStateMachine drives the store with seeded random op
// sequences against a flat oracle (file → block map), reconciling exact
// refcounts and invariants after every operation and GC cycle.
func TestRandomizedStateMachine(t *testing.T) {
	files := []string{"a", "b", "c"}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(4)
		oracle := map[string][]uint64{}
		reconcile := func(step int) {
			if v := s.CheckInvariants(); len(v) > 0 {
				t.Fatalf("seed %d step %d: %v", seed, step, v)
			}
			want := map[uint64]int64{}
			for _, m := range oracle {
				for _, h := range m {
					if h != Hole {
						want[h]++
					}
				}
			}
			var refBytes int64
			for _, n := range want {
				refBytes += n * 4
			}
			if got := s.Stats().RefBytes; got != refBytes {
				t.Fatalf("seed %d step %d: store refs %d bytes, oracle %d", seed, step, got, refBytes)
			}
			for f, m := range oracle {
				got := s.FileBlocks(f)
				for i, h := range m {
					gh := Hole
					if i < len(got) {
						gh = got[i]
					}
					if gh != h {
						t.Fatalf("seed %d step %d: file %q block %d = %x, oracle %x", seed, step, f, i, gh, h)
					}
				}
			}
		}
		for step := 0; step < 400; step++ {
			f := files[rng.Intn(len(files))]
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5: // update a run of blocks
				start := int64(rng.Intn(8))
				var blocks []Block
				m := oracle[f]
				for idx := start; idx < start+int64(1+rng.Intn(4)); idx++ {
					h := uint64(1 + rng.Intn(12)) // small space forces dedup
					blocks = append(blocks, Block{Index: idx, Hash: h, Size: 4})
					for int64(len(m)) <= idx {
						m = append(m, Hole)
					}
					m[idx] = h
				}
				oracle[f] = m
				s.UpdateFile(f, blocks)
			case 6, 7: // drop a range
				lo, hi := int64(rng.Intn(10)), int64(rng.Intn(10))
				if lo > hi {
					lo, hi = hi, lo
				}
				s.DropRange(f, lo, hi)
				for idx := lo; idx <= hi && idx < int64(len(oracle[f])); idx++ {
					oracle[f][idx] = Hole
				}
			case 8: // drop the whole file
				dropFile(s, f)
				clear(oracle[f])
			case 9: // GC cycle
				s.CollectBatch(int64(1 + rng.Intn(32)))
			}
			reconcile(step)
		}
		// Drain: everything released and collected must balance to zero.
		for _, f := range files {
			dropFile(s, f)
		}
		for {
			if n, _ := s.CollectBatch(1 << 30); n == 0 {
				break
			}
		}
		st := s.Stats()
		if st.Blocks != 0 || st.LiveBytes != 0 || st.DeadBytes != 0 {
			t.Fatalf("seed %d: store not empty after drain: %+v", seed, st)
		}
		if st.InternedBytes != st.FreedBytes {
			t.Fatalf("seed %d: interned %d != freed %d after drain", seed, st.InternedBytes, st.FreedBytes)
		}
	}
}
