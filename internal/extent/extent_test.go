package extent

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBasic(t *testing.T) {
	var m Map
	m.Write(10, []byte("hello"))
	if got := m.Read(10, 5); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Read = %q", got)
	}
}

func TestGapsReadAsZeros(t *testing.T) {
	var m Map
	m.Write(5, []byte("ab"))
	want := []byte{0, 0, 0, 0, 0, 'a', 'b', 0, 0, 0}
	if got := m.Read(0, 10); !bytes.Equal(got, want) {
		t.Errorf("Read = %v", got)
	}
	if got := m.Read(100, 5); got != nil {
		t.Errorf("read of untouched range = %v, want nil", got)
	}
}

func TestOverwriteMiddle(t *testing.T) {
	var m Map
	m.Write(0, []byte("aaaaaaaaaa"))
	m.Write(3, []byte("BBB"))
	got := m.Read(0, 10)
	if !bytes.Equal(got, []byte("aaaBBBaaaa")) {
		t.Errorf("Read = %q", got)
	}
	if len(m.exts) != 3 {
		t.Errorf("extents = %d, want 3 (head, new, tail)", len(m.exts))
	}
}

func TestOverwriteSpanningMultipleExtents(t *testing.T) {
	var m Map
	m.Write(0, []byte("aaa"))
	m.Write(5, []byte("bbb"))
	m.Write(10, []byte("ccc"))
	m.Write(2, []byte("XXXXXXXXX")) // [2,11)
	got := m.Read(0, 13)
	if !bytes.Equal(got, []byte("aaXXXXXXXXXcc")) {
		t.Errorf("Read = %q", got)
	}
}

func TestWriteDoesNotAliasCaller(t *testing.T) {
	var m Map
	buf := []byte("abc")
	m.Write(0, buf)
	buf[0] = 'Z'
	got := m.Read(0, 3)
	if got[0] != 'a' {
		t.Error("map aliased the caller's buffer")
	}
}

// An exact-range rewrite copies into the extent in place: it allocates
// nothing, and the head and tail pieces of an earlier split, which share
// one backing array, keep their bytes.
func TestExactRewriteInPlace(t *testing.T) {
	var m Map
	m.Write(0, []byte("aaaaaaaaaa"))
	m.Write(3, []byte("BBB"))
	if allocs := testing.AllocsPerRun(20, func() { m.Write(3, []byte("CCC")) }); allocs != 0 {
		t.Errorf("exact rewrite allocates %.1f objects, want 0", allocs)
	}
	if got := m.Read(0, 10); !bytes.Equal(got, []byte("aaaCCCaaaa")) {
		t.Errorf("after middle rewrite Read = %q", got)
	}
	m.Write(0, []byte("HHH"))
	if got := m.Read(0, 10); !bytes.Equal(got, []byte("HHHCCCaaaa")) {
		t.Errorf("after head rewrite Read = %q", got)
	}
	m.Write(6, []byte("TTTT"))
	if got := m.Read(0, 10); !bytes.Equal(got, []byte("HHHCCCTTTT")) {
		t.Errorf("after tail rewrite Read = %q", got)
	}
	if len(m.exts) != 3 {
		t.Errorf("extents = %d, want 3 (head, middle, tail)", len(m.exts))
	}
}

// Property: the map agrees with a flat reference buffer under random writes.
func TestMatchesReferenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var m Map
		ref := make([]byte, 500)
		for i := 0; i < 100; i++ {
			off := int64(rng.Intn(400))
			size := rng.Intn(80) + 1
			if len(m.exts) > 0 && rng.Intn(3) == 0 {
				// Rewrite one extent's exact range, in place.
				e := m.exts[rng.Intn(len(m.exts))]
				off, size = e.off, len(e.data)
			}
			data := make([]byte, size)
			rng.Read(data)
			m.Write(off, data)
			copy(ref[off:off+int64(size)], data)
		}
		for q := 0; q < 50; q++ {
			off := int64(rng.Intn(480))
			size := int64(rng.Intn(100) + 1)
			if off+size > 500 {
				size = 500 - off
			}
			got := m.Read(off, size)
			if got == nil {
				// No-overlap reads return nil; the reference range must
				// then be untouched (all zeros).
				for _, b := range ref[off : off+size] {
					if b != 0 {
						return false
					}
				}
				continue
			}
			if !bytes.Equal(got, ref[off:off+size]) {
				return false
			}
		}
		// Extents stay sorted and non-overlapping.
		for i := 1; i < len(m.exts); i++ {
			prev := m.exts[i-1]
			if prev.off+int64(len(prev.data)) > m.exts[i].off {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
