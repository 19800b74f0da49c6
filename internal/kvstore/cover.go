package kvstore

import (
	"slices"

	"univistor/internal/meta"
)

// CoverRange is the covering scan of a range-partitioned key space, shared
// by the ring metadata service (one store for every server) and the
// metadata plane (one store per shard). It appends to recs, in key order,
// every record of the file overlapping [offset, offset+size); and to parts
// the ascending, distinct indices of the rangeSize partitions the range
// touches, then the index of the partition holding a record that straddles
// in from the partition before the range if it is not among them. at maps
// an offset to the index and store owning its partition; several indices
// may share one store.
//
// Records are no larger than rangeSize and are keyed in their own
// partition, so each partition's scan finds keys no other finds, and only
// the first partition's head and the partition before can reach in from
// before the range: the result needs no sort or deduplication. recs grows
// at most once, by exactly what is appended when every record has a
// positive size; with warm buffers nothing is allocated.
func CoverRange(recs []meta.Record, parts []int, fid meta.FileID, offset, size, rangeSize int64,
	at func(offset int64) (int, *Store)) ([]meta.Record, []int) {
	if size <= 0 {
		return recs, parts
	}
	end := offset + size
	// At most two records reach in from before the range, ahead of every
	// scanned one: the first partition's head, and the record of the
	// partition before unless the head is that record.
	var lead [2]meta.Record
	nl, back := 0, -1
	partStart := offset / rangeSize * rangeSize
	_, st := at(offset)
	if head, ok := straddler(st, fid, offset, offset); ok {
		lead[0], nl = head, 1
		// A store shared with the partition before can return that
		// partition's straddler as the head: it is served there.
		if head.Offset < partStart {
			back, _ = at(partStart - 1)
		}
	}
	if partStart > 0 {
		idx, st := at(partStart - 1)
		if prev, ok := straddler(st, fid, partStart-1, offset); ok && (nl == 0 || prev.Key() != lead[0].Key()) {
			lead[nl], back = prev, idx
			nl++
		}
	}
	if nl == 2 && lead[1].Offset < lead[0].Offset {
		lead[0], lead[1] = lead[1], lead[0]
	}
	n, pbase := nl, len(parts)
	for off := offset; off < end; {
		partEnd := min((off/rangeSize+1)*rangeSize, end)
		idx, st := at(off)
		parts = append(parts, idx)
		n += st.count(meta.Key{FID: fid, Offset: off}, meta.Key{FID: fid, Offset: partEnd})
		off = partEnd
	}
	slices.Sort(parts[pbase:])
	parts = append(parts[:pbase], slices.Compact(parts[pbase:])...)
	if back >= 0 && !slices.Contains(parts[pbase:], back) {
		parts = append(parts, back)
	}
	recs = append(slices.Grow(recs, n), lead[:nl]...)
	for off := offset; off < end; {
		partEnd := min((off/rangeSize+1)*rangeSize, end)
		_, st := at(off)
		st.Scan(meta.Key{FID: fid, Offset: off}, meta.Key{FID: fid, Offset: partEnd},
			func(rec meta.Record) bool {
				if rec.Offset+rec.Size > offset && rec.Offset < end {
					recs = append(recs, rec)
				}
				return true
			})
		off = partEnd
	}
	return recs, parts
}

// straddler returns the record of fid in st with the greatest key ≤ key,
// if it starts before from and reaches past it.
func straddler(st *Store, fid meta.FileID, key, from int64) (meta.Record, bool) {
	prev, ok := st.Floor(meta.Key{FID: fid, Offset: key})
	return prev, ok && prev.FID == fid && prev.Offset < from && prev.Offset+prev.Size > from
}
