// Package extent provides a sparse byte map: non-overlapping extents of
// payload bytes keyed by offset. The performance models treat data as sized
// flows; functional correctness (read-your-writes through caches, spills,
// and flushes) is carried by extent maps holding the actual bytes.
package extent

import (
	"fmt"
	"sort"
)

type ext struct {
	off  int64
	data []byte
}

// Map is a sparse, mutable byte map. The zero value is ready to use.
// Overlapping writes overwrite; reads of unwritten bytes return zeros.
type Map struct {
	exts []ext // sorted by off, non-overlapping
}

// Write stores data at off, overwriting any overlap. A nil or empty payload
// is a no-op.
func (m *Map) Write(off int64, data []byte) {
	if len(data) == 0 {
		return
	}
	if off < 0 {
		panic(fmt.Sprintf("extent: negative offset %d", off))
	}
	// An extent with exactly this range takes the bytes in place. Its
	// backing array may be shared with the head or tail piece of an
	// earlier split, but only within the extent's own length, which no
	// other extent covers; Read copies out, so no caller holds it either.
	i := m.search(off)
	if i < len(m.exts) && m.exts[i].off == off && len(m.exts[i].data) == len(data) {
		copy(m.exts[i].data, data)
		return
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	end := off + int64(len(buf))

	var out []ext
	inserted := false
	for _, e := range m.exts {
		eEnd := e.off + int64(len(e.data))
		switch {
		case eEnd <= off || e.off >= end:
			// No overlap; keep, inserting the new extent in order.
			if !inserted && e.off >= end {
				out = append(out, ext{off, buf})
				inserted = true
			}
			out = append(out, e)
		default:
			// Overlap: keep the non-overlapped head/tail pieces.
			if e.off < off {
				out = append(out, ext{e.off, e.data[:off-e.off]})
			}
			if !inserted {
				out = append(out, ext{off, buf})
				inserted = true
			}
			if eEnd > end {
				out = append(out, ext{end, e.data[end-e.off:]})
			}
		}
	}
	if !inserted {
		out = append(out, ext{off, buf})
	}
	m.exts = out
}

// Read returns size bytes starting at off; unwritten gaps read as zeros.
// When no written byte falls in the range, Read returns nil without
// allocating — critical for size-only simulation runs that read terabytes
// of phantom data.
func (m *Map) Read(off, size int64) []byte {
	if size < 0 || off < 0 {
		panic(fmt.Sprintf("extent: invalid read [%d, %d)", off, off+size))
	}
	end := off + size
	i := m.search(off)
	if i >= len(m.exts) || m.exts[i].off >= end {
		return nil
	}
	out := make([]byte, size)
	for ; i < len(m.exts) && m.exts[i].off < end; i++ {
		e := m.exts[i]
		lo, hi := e.off, e.off+int64(len(e.data))
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		copy(out[lo-off:hi-off], e.data[lo-e.off:hi-e.off])
	}
	return out
}

// search returns the index of the first extent that ends after off.
func (m *Map) search(off int64) int {
	return sort.Search(len(m.exts), func(i int) bool {
		return m.exts[i].off+int64(len(m.exts[i].data)) > off
	})
}
