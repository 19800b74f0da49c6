package kvstore

import (
	"fmt"
	"slices"

	"univistor/internal/meta"
)

// Ring is the distributed metadata store: one ordered Store per metadata
// server, with keys assigned by the offset-range partitioner of §II-B3.
// Methods take and return plain data; the owning service layers in the
// messaging costs.
type Ring struct {
	rangeSize int64
	stores    []*Store
}

// NewRing builds a ring of n server stores partitioned at rangeSize
// granularity.
func NewRing(n int, rangeSize int64) *Ring {
	if rangeSize <= 0 {
		panic(fmt.Sprintf("kvstore: range size must be positive, got %d", rangeSize))
	}
	if n <= 0 {
		panic(fmt.Sprintf("kvstore: need at least one server, got %d", n))
	}
	r := &Ring{rangeSize: rangeSize}
	for i := 0; i < n; i++ {
		r.stores = append(r.stores, NewStore())
	}
	return r
}

// HomeServer returns the server owning the record at offset: the offset
// space of each file is cut into rangeSize ranges assigned round-robin to
// the servers (§II-B3, Fig. 3).
func (r *Ring) HomeServer(offset int64) int {
	if offset < 0 {
		panic(fmt.Sprintf("kvstore: negative offset %d", offset))
	}
	return int((offset / r.rangeSize) % int64(len(r.stores)))
}

// Put stores the record on its home server and returns that server's index
// so the caller can charge the network hop.
func (r *Ring) Put(rec meta.Record) int {
	srv := r.HomeServer(rec.Offset)
	r.stores[srv].Put(rec)
	return srv
}

// Delete removes the record keyed exactly by (fid, offset), reporting
// whether it existed.
func (r *Ring) Delete(fid meta.FileID, offset int64) bool {
	return r.stores[r.HomeServer(offset)].Delete(meta.Key{FID: fid, Offset: offset})
}

// Get fetches the record keyed exactly by (fid, offset).
func (r *Ring) Get(fid meta.FileID, offset int64) (meta.Record, bool) {
	return r.stores[r.HomeServer(offset)].Get(meta.Key{FID: fid, Offset: offset})
}

// Covering appends to recs, in offset order, every record of the file
// overlapping the byte range [offset, offset+size), and to servers the
// servers contacted: the partitions' servers ascending, then the server
// holding a record that straddles in from the partition before the range,
// if it is not among them. A record overlaps if rec.Offset < offset+size
// and rec.Offset+rec.Size > offset.
func (r *Ring) Covering(recs []meta.Record, servers []int, fid meta.FileID, offset, size int64) ([]meta.Record, []int) {
	return CoverRange(recs, servers, fid, offset, size, r.rangeSize, r.at)
}

// at maps an offset to the server owning its partition and that server's
// store.
func (r *Ring) at(offset int64) (int, *Store) {
	srv := r.HomeServer(offset)
	return srv, r.stores[srv]
}

// CoverRange is the covering scan of a range-partitioned set of stores,
// shared by Ring.Covering, the metadata plane and the node metadata
// buffer. It appends to recs, in key order, every record of the file
// overlapping [offset, offset+size); and to parts the ascending, distinct
// indices of the rangeSize partitions the range touches, then the index
// holding a record that straddles in from the partition before the range
// if it is not among them. at maps an offset to the index and store
// owning its partition.
//
// Records are no larger than rangeSize and live in their own partition's
// store, so each partition's scan finds keys no other finds, and only the
// first partition's head and the partition before can reach in from
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
	_, st := at(offset)
	if head, ok := straddler(st, fid, offset, offset); ok {
		lead[0], nl = head, 1
	}
	if partStart := offset / rangeSize * rangeSize; partStart > 0 {
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

// Total returns the number of records across all servers.
func (r *Ring) Total() int {
	n := 0
	for _, s := range r.stores {
		n += s.Len()
	}
	return n
}

// Validate checks that every stored record lives on its home server.
func (r *Ring) Validate() error {
	for i, s := range r.stores {
		for _, rec := range s.All() {
			if home := r.HomeServer(rec.Offset); home != i {
				return fmt.Errorf("kvstore: record fid=%d off=%d on server %d, home %d",
					rec.FID, rec.Offset, i, home)
			}
		}
	}
	return nil
}
