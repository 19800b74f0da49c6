package castore

import (
	"testing"
)

// FuzzCAS drives the chunker/refcount state machine with an arbitrary byte
// stream decoded as operations. Whatever the stream, the store must never
// double-free (release panics), leak (conservation invariant), or serve a
// stale block (file maps reconciled against an oracle after every op).
// The committed seed corpus in testdata/fuzz/FuzzCAS runs under plain
// `go test`, so CI exercises these paths without -fuzz.
func FuzzCAS(f *testing.F) {
	f.Add([]byte{})
	// One update, a dedup hit from a second file, a drop, a collect.
	f.Add([]byte{0x00, 0x05, 0x10, 0x05, 0x01, 0x00, 0x02})
	// Overwrite churn on one file, then a whole-file drop + drain.
	f.Add([]byte{0x00, 0x03, 0x00, 0x04, 0x00, 0x05, 0x03, 0x02, 0x02})
	// Death + resurrection + re-death.
	f.Add([]byte{0x00, 0x07, 0x01, 0x10, 0x07, 0x02, 0x11, 0x07, 0x02})
	f.Fuzz(func(t *testing.T, ops []byte) {
		files := []string{"a", "b", "c", "d"}
		s := New(4)
		oracle := map[string][]uint64{}
		pos := 0
		next := func() (byte, bool) {
			if pos >= len(ops) {
				return 0, false
			}
			b := ops[pos]
			pos++
			return b, true
		}
		for {
			op, ok := next()
			if !ok {
				break
			}
			fn := files[int(op>>4)%len(files)]
			switch op % 4 {
			case 0: // update one block: next byte = (index, hash) nibbles
				arg, ok := next()
				if !ok {
					arg = 0
				}
				idx := int64(arg >> 4 % 8)
				h := uint64(1 + arg%16)
				m := oracle[fn]
				for int64(len(m)) <= idx {
					m = append(m, Hole)
				}
				m[idx] = h
				oracle[fn] = m
				s.UpdateFile(fn, []Block{{Index: idx, Hash: h, Size: 4}})
			case 1: // drop a range: next byte = (lo, hi) nibbles
				arg, ok := next()
				if !ok {
					arg = 0
				}
				lo, hi := int64(arg>>4%8), int64(arg%8)
				if lo > hi {
					lo, hi = hi, lo
				}
				s.DropRange(fn, lo, hi)
				for idx := lo; idx <= hi && idx < int64(len(oracle[fn])); idx++ {
					oracle[fn][idx] = Hole
				}
			case 2: // GC cycle
				s.CollectBatch(int64(1 + op>>2))
			case 3: // drop the whole file
				dropFile(s, fn)
				clear(oracle[fn])
			}
			if v := s.CheckInvariants(); len(v) > 0 {
				t.Fatalf("op %x at %d: invariants violated: %v", op, pos, v)
			}
			// Stale-block check: every mapped block still resolves exactly
			// as the oracle remembers it.
			for of, m := range oracle {
				got := s.FileBlocks(of)
				for i, h := range m {
					gh := Hole
					if i < len(got) {
						gh = got[i]
					}
					if gh != h {
						t.Fatalf("file %q block %d = %x, oracle %x (stale block)", of, i, gh, h)
					}
				}
			}
		}
		// Leak check: drain everything; interned must equal freed.
		for _, name := range s.Files() {
			dropFile(s, name)
		}
		for {
			if n, _ := s.CollectBatch(1 << 30); n == 0 {
				break
			}
		}
		st := s.Stats()
		if st.Blocks != 0 || st.LiveBytes != 0 || st.DeadBytes != 0 || st.InternedBytes != st.FreedBytes {
			t.Fatalf("leak after drain: %+v", st)
		}
	})
}
