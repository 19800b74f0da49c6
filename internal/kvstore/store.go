// Package kvstore implements the distributed key-value substrate of the
// metadata service: an ordered in-memory store (sorted blocks of records)
// and the covering scan of a key space range-partitioned across servers
// (§II-B3). The package is pure data structure: messaging and latency costs
// for remote operations are modelled by the callers that own the sim
// processes.
package kvstore

import (
	"slices"

	"univistor/internal/meta"
)

// blockCap is the most records one block holds. A block that grows past it
// splits into halves, unless the insert went to its end: then the block
// stays full and the new record starts the next one, so keys written in
// rising order fill every block.
const blockCap = 64

// Store is an ordered map from meta.Key to meta.Record kept as a run of
// sorted blocks. Every block is non-empty, holds at most blockCap records
// and ends before the next one starts; firsts holds each block's first
// key, so a lookup is two binary searches. meta.Record has no pointers, so
// the garbage collector never scans the records.
//
// A block that a delete empties or merges away is kept in spare, and the
// next block the store needs is taken from there, so a store that shrinks
// and grows back allocates nothing. The store allocates a block only when
// spare is empty, so it never holds more blocks, live and spare together,
// than it once held live at the same time.
type Store struct {
	blocks [][]meta.Record
	firsts []meta.Key
	spare  [][]meta.Record
	size   int
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Len returns the number of records stored.
func (s *Store) Len() int { return s.size }

// newBlock returns a block of n records with room for one beyond blockCap,
// so an insert into a full block never regrows it before the split. It
// takes a spare block if there is one.
func (s *Store) newBlock(n int) []meta.Record {
	if k := len(s.spare) - 1; k >= 0 {
		b := s.spare[k][:n]
		s.spare = s.spare[:k]
		return b
	}
	return make([]meta.Record, n, blockCap+1)
}

// freeBlock keeps a block that left the store for the next newBlock.
func (s *Store) freeBlock(b []meta.Record) { s.spare = append(s.spare, b[:0]) }

// block returns the index of the last block whose first key is ≤ key, or
// -1 if key precedes every block.
func (s *Store) block(key meta.Key) int {
	lo, hi := 0, len(s.firsts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if key.Less(s.firsts[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo - 1
}

// slot returns the index of the first record in b whose key is ≥ key, and
// whether that record's key is key.
func slot(b []meta.Record, key meta.Key) (int, bool) {
	lo, hi := 0, len(b)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b[m].Key().Less(key) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(b) && b[lo].Key() == key
}

// find returns the block that would hold key (-1 if key precedes every
// block), key's slot in it, and whether the slot holds key.
func (s *Store) find(key meta.Key) (bi, i int, ok bool) {
	if bi = s.block(key); bi < 0 {
		return -1, 0, false
	}
	i, ok = slot(s.blocks[bi], key)
	return bi, i, ok
}

// Put inserts or replaces the record stored under r.Key().
func (s *Store) Put(r meta.Record) {
	key := r.Key()
	if len(s.blocks) == 0 {
		b := s.newBlock(1)
		b[0] = r
		s.blocks = append(s.blocks, b)
		s.firsts = append(s.firsts, key)
		s.size++
		return
	}
	bi := max(s.block(key), 0)
	b := s.blocks[bi]
	i, ok := slot(b, key)
	if ok {
		b[i] = r
		return
	}
	b = append(b, meta.Record{})
	copy(b[i+1:], b[i:])
	b[i] = r
	s.size++
	if i == 0 {
		s.firsts[bi] = key
	}
	if len(b) <= blockCap {
		s.blocks[bi] = b
		return
	}
	half := len(b) / 2
	if i == blockCap {
		half = blockCap
	}
	right := s.newBlock(len(b) - half)
	copy(right, b[half:])
	s.blocks[bi] = b[:half]
	s.blocks = slices.Insert(s.blocks, bi+1, right)
	s.firsts = slices.Insert(s.firsts, bi+1, right[0].Key())
}

// Get returns the record stored under key.
func (s *Store) Get(key meta.Key) (meta.Record, bool) {
	if bi, i, ok := s.find(key); ok {
		return s.blocks[bi][i], true
	}
	return meta.Record{}, false
}

// Delete removes the record stored under key, reporting whether it existed.
// A block that empties is dropped, and one that fits into half a block
// together with its right neighbour absorbs it; either way the block that
// leaves becomes a spare.
func (s *Store) Delete(key meta.Key) bool {
	bi, i, ok := s.find(key)
	if !ok {
		return false
	}
	b := s.blocks[bi]
	copy(b[i:], b[i+1:])
	b = b[:len(b)-1]
	s.size--
	if len(b) == 0 {
		s.freeBlock(b)
		s.blocks = slices.Delete(s.blocks, bi, bi+1)
		s.firsts = slices.Delete(s.firsts, bi, bi+1)
		return true
	}
	if i == 0 {
		s.firsts[bi] = b[0].Key()
	}
	if bi+1 < len(s.blocks) && len(b)+len(s.blocks[bi+1]) <= blockCap/2 {
		b = append(b, s.blocks[bi+1]...)
		s.freeBlock(s.blocks[bi+1])
		s.blocks = slices.Delete(s.blocks, bi+1, bi+2)
		s.firsts = slices.Delete(s.firsts, bi+1, bi+2)
	}
	s.blocks[bi] = b
	return true
}

// Floor returns the record with the greatest key ≤ key, if any. Metadata
// lookups use it to find the segment covering an offset that is not itself
// a segment start.
func (s *Store) Floor(key meta.Key) (meta.Record, bool) {
	bi, i, ok := s.find(key)
	switch {
	case bi < 0:
		return meta.Record{}, false
	case ok:
		return s.blocks[bi][i], true
	}
	// The block's first key is below key, so i ≥ 1.
	return s.blocks[bi][i-1], true
}

// pos returns the block and slot of the first record whose key is ≥ key.
// The store must not be empty.
func (s *Store) pos(key meta.Key) (bi, i int) {
	bi = max(s.block(key), 0)
	i, _ = slot(s.blocks[bi], key)
	return bi, i
}

// count returns the number of records with lo ≤ key < hi, for lo ≤ hi. It
// reads only the block index and block lengths, never the records between.
func (s *Store) count(lo, hi meta.Key) int {
	if len(s.blocks) == 0 {
		return 0
	}
	bi, i := s.pos(lo)
	bj, j := s.pos(hi)
	n := j - i
	for _, b := range s.blocks[bi:bj] {
		n += len(b)
	}
	return n
}

// Scan visits, in key order, every record with lo ≤ key < hi, stopping
// early if fn returns false.
func (s *Store) Scan(lo, hi meta.Key, fn func(meta.Record) bool) {
	if len(s.blocks) == 0 {
		return
	}
	bi, i := s.pos(lo)
	for _, b := range s.blocks[bi:] {
		for _, r := range b[i:] {
			if !r.Key().Less(hi) || !fn(r) {
				return
			}
		}
		i = 0
	}
}

// All returns every record in key order. Intended for tests and tools.
func (s *Store) All() []meta.Record {
	out := make([]meta.Record, 0, s.size)
	for _, b := range s.blocks {
		out = append(out, b...)
	}
	return out
}
