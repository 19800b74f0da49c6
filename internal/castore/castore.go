// Package castore is the content-addressed dedup block store behind
// UniviStor's flush path. Flushed file images are chunked into fixed-size
// blocks, each block identified by a 64-bit content fingerprint; identical
// blocks across files, ranks, and timesteps share one physical copy with a
// reference count. Overwrites and deletes decrement refcounts; blocks whose
// count reaches zero queue for garbage collection, which the core system
// drains as a real flow competing for PFS bandwidth (the OptiFS-style
// content-based hashing + refcounted GC design, SNIPPETS.md §3.7–3.8).
//
// The store is a pure state machine: no simulation types, no clocks, no
// randomness. All iteration that affects observable results walks
// deterministic structures (slices, FIFO queues), so two runs issuing the
// same operation sequence produce byte-identical counters — the property
// the figure pipeline and the fuzz/property suites lean on.
package castore

import (
	"fmt"
	"sort"
)

// Hole marks a block index with no content (an unwritten gap in the sparse
// file image). Fingerprints never collide with it: Digest.Sum never
// returns 0.
const Hole uint64 = 0

// Block is one chunk of a file's flushed image: its index in the file's
// block map, its content fingerprint (Hole for an all-gap block), and its
// size (the final block of a file may be short).
type Block struct {
	Index int64
	Hash  uint64
	Size  int64
}

// block is the store's per-unique-content record.
type block struct {
	size int64
	refs int64
	// dead marks a zero-ref block awaiting collection; queued guards
	// against double-enqueueing when a block dies, resurrects, and dies
	// again before the collector reaches it.
	dead   bool
	queued bool
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Blocks is the number of unique blocks currently held (live + dead).
	Blocks int `json:"blocks"`
	// LiveBytes is the physical footprint of referenced blocks (each unique
	// block counted once).
	LiveBytes int64 `json:"live_bytes"`
	// RefBytes is sum(refs × size) over live blocks — the logical bytes the
	// file block maps resolve through the store.
	RefBytes int64 `json:"ref_bytes"`
	// DeadBytes is the footprint of zero-ref blocks awaiting GC.
	DeadBytes int64 `json:"dead_bytes"`
	// InternedBytes is the cumulative unique-block bytes ever created — the
	// physical write traffic dedup could not avoid.
	InternedBytes int64 `json:"interned_bytes"`
	// DedupedBytes is the cumulative logical bytes satisfied by an existing
	// block instead of a new physical copy.
	DedupedBytes int64 `json:"deduped_bytes"`
	// FreedBytes is the cumulative bytes reclaimed by GC.
	FreedBytes int64 `json:"freed_bytes"`
	// DedupHits counts intern operations satisfied by an existing block.
	DedupHits int64 `json:"dedup_hits"`
	// GCBatches and GCBlocks count collector activity.
	GCBatches int64 `json:"gc_batches"`
	GCBlocks  int64 `json:"gc_blocks"`
}

// Store is the content-addressed block store.
type Store struct {
	blockBytes int64
	blocks     map[uint64]*block
	// files maps each flushed file to its block map: per index the hash of
	// the block backing it (Hole for gaps).
	files map[string][]uint64
	// pending is the FIFO of hashes that have died since the last collect.
	// Entries may be stale (the block resurrected); CollectBatch skips them.
	pending      []uint64
	pendingBytes int64

	// stats holds the cumulative counters; Stats fills in Blocks and
	// DeadBytes.
	stats Stats
}

// New returns an empty store chunking at blockBytes granularity.
func New(blockBytes int64) *Store {
	if blockBytes <= 0 {
		panic(fmt.Sprintf("castore: block size must be positive, got %d", blockBytes))
	}
	return &Store{
		blockBytes: blockBytes,
		blocks:     map[uint64]*block{},
		files:      map[string][]uint64{},
	}
}

// BlockBytes returns the chunking granularity.
func (s *Store) BlockBytes() int64 { return s.blockBytes }

// UpdateFile replaces the file's block map with the given blocks (the
// complete chunked image of the file at flush time, ascending by Index) and
// returns the physical bytes of blocks that had no existing copy — the
// bytes the flush must actually move. Unchanged blocks cost nothing;
// changed or new blocks intern (dedup-hitting existing content where
// possible); blocks mapped before but absent or changed now release their
// reference.
func (s *Store) UpdateFile(file string, blocks []Block) (newPhysical int64) {
	old := s.files[file]
	n := int64(len(old))
	for _, b := range blocks {
		if b.Index+1 > n {
			n = b.Index + 1
		}
	}
	next := make([]uint64, n)
	copy(next, old)
	for _, b := range blocks {
		if b.Size <= 0 && b.Hash != Hole {
			panic(fmt.Sprintf("castore: block %d of %q has hash but size %d", b.Index, file, b.Size))
		}
		prev := next[b.Index]
		if prev == b.Hash {
			continue // unchanged content: no ref motion, no physical bytes
		}
		if prev != Hole {
			s.release(prev)
		}
		if b.Hash != Hole {
			newPhysical += s.intern(b.Hash, b.Size)
		}
		next[b.Index] = b.Hash
	}
	s.files[file] = next
	return newPhysical
}

// DropRange releases the file's blocks in [firstIdx, lastIdx] (inclusive),
// mapping them to holes — the delete path. Indexes beyond the file's block
// map are ignored. It returns how many mapped blocks were released.
func (s *Store) DropRange(file string, firstIdx, lastIdx int64) int {
	m := s.files[file]
	dropped := 0
	for idx := firstIdx; idx <= lastIdx && idx < int64(len(m)); idx++ {
		if idx < 0 || m[idx] == Hole {
			continue
		}
		s.release(m[idx])
		m[idx] = Hole
		dropped++
	}
	return dropped
}

// intern adds one reference to the block, creating it if no copy exists.
// It returns the physical bytes newly materialized (0 on a dedup hit).
func (s *Store) intern(hash uint64, size int64) int64 {
	b, ok := s.blocks[hash]
	if !ok {
		s.blocks[hash] = &block{size: size, refs: 1}
		s.stats.LiveBytes += size
		s.stats.RefBytes += size
		s.stats.InternedBytes += size
		return size
	}
	if b.size != size {
		// The fingerprint folds the size in, so a mismatch is a state-machine
		// bug, not a workload property.
		panic(fmt.Sprintf("castore: block %x interned at size %d but held at %d", hash, size, b.size))
	}
	if b.dead {
		// Resurrection: the content came back before the collector freed it.
		b.dead = false
		b.refs = 1
		s.pendingBytes -= size
		s.stats.LiveBytes += size
		s.stats.RefBytes += size
	} else {
		b.refs++
		s.stats.RefBytes += size
	}
	s.stats.DedupHits++
	s.stats.DedupedBytes += size
	return 0
}

// release drops one reference; at zero the block dies and queues for GC.
func (s *Store) release(hash uint64) {
	b, ok := s.blocks[hash]
	if !ok {
		panic(fmt.Sprintf("castore: release of unknown block %x", hash))
	}
	if b.dead {
		panic(fmt.Sprintf("castore: double free of block %x", hash))
	}
	b.refs--
	s.stats.RefBytes -= b.size
	if b.refs > 0 {
		return
	}
	if b.refs < 0 {
		panic(fmt.Sprintf("castore: block %x refcount went negative", hash))
	}
	b.dead = true
	s.stats.LiveBytes -= b.size
	s.pendingBytes += b.size
	if !b.queued {
		b.queued = true
		s.pending = append(s.pending, hash)
	}
}

// PendingBytes returns the footprint of dead blocks awaiting collection.
func (s *Store) PendingBytes() int64 { return s.pendingBytes }

// CollectBatch frees dead blocks from the front of the GC queue until at
// least maxBytes have been reclaimed (or the queue drains), returning the
// block count and bytes freed. Stale queue entries — blocks resurrected
// since they died — are skipped. The caller charges the returned bytes as
// the collection flow's I/O.
func (s *Store) CollectBatch(maxBytes int64) (blocks int, bytes int64) {
	if maxBytes <= 0 {
		maxBytes = 1
	}
	for len(s.pending) > 0 && bytes < maxBytes {
		hash := s.pending[0]
		s.pending = s.pending[1:]
		b, ok := s.blocks[hash]
		if !ok {
			panic(fmt.Sprintf("castore: queued block %x vanished", hash))
		}
		b.queued = false
		if !b.dead {
			continue // resurrected while queued
		}
		delete(s.blocks, hash)
		s.pendingBytes -= b.size
		s.stats.FreedBytes += b.size
		s.stats.GCBlocks++
		blocks++
		bytes += b.size
	}
	if blocks > 0 {
		s.stats.GCBatches++
	}
	return blocks, bytes
}

// Files returns the flushed file names in sorted order.
func (s *Store) Files() []string {
	out := make([]string, 0, len(s.files))
	for name := range s.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FileBlocks returns a copy of the file's block map (nil if never flushed).
func (s *Store) FileBlocks(file string) []uint64 {
	m, ok := s.files[file]
	if !ok {
		return nil
	}
	return append([]uint64(nil), m...)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	st := s.stats
	st.Blocks = len(s.blocks)
	st.DeadBytes = s.pendingBytes
	return st
}

// CheckInvariants recomputes every conservation property from the raw maps
// and compares it against the incrementally maintained counters. An empty
// result means the refcount state machine is internally consistent:
//
//  1. Every reference a file block map holds resolves to a live block, and
//     per block the recomputed reference count equals the stored one — sum
//     of refcounts × block size == live logical extent bytes.
//  2. No block is dead (queued for GC) while referenced, and no live block
//     has zero references.
//  3. Byte conservation: every unique byte ever interned is live, dead, or
//     freed — interned == live + dead + freed.
//  4. The GC queue's footprint matches the dead blocks' (no orphan dead
//     block missing from the queue, no freed block lingering).
func (s *Store) CheckInvariants() []string {
	var out []string
	refs := map[uint64]int64{}
	for _, name := range s.Files() {
		for idx, h := range s.files[name] {
			if h == Hole {
				continue
			}
			b, ok := s.blocks[h]
			if !ok {
				out = append(out, fmt.Sprintf(
					"cas file %q block %d: hash %x not in store", name, idx, h))
				continue
			}
			if b.dead {
				out = append(out, fmt.Sprintf(
					"cas file %q block %d: hash %x is dead but still referenced", name, idx, h))
			}
			refs[h]++
		}
	}
	hashes := make([]uint64, 0, len(s.blocks))
	for h := range s.blocks {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	var live, refBytes, dead int64
	deadQueued := map[uint64]bool{}
	for _, h := range s.pending {
		deadQueued[h] = true
	}
	for _, h := range hashes {
		b := s.blocks[h]
		switch {
		case b.dead:
			if b.refs != 0 {
				out = append(out, fmt.Sprintf("cas block %x: dead with %d refs", h, b.refs))
			}
			if !deadQueued[h] {
				out = append(out, fmt.Sprintf("cas block %x: dead but not queued for GC", h))
			}
			dead += b.size
		default:
			if b.refs <= 0 {
				out = append(out, fmt.Sprintf("cas block %x: live with %d refs", h, b.refs))
			}
			if got := refs[h]; got != b.refs {
				out = append(out, fmt.Sprintf(
					"cas block %x: %d refs held but file maps reference it %d times", h, b.refs, got))
			}
			live += b.size
			refBytes += b.refs * b.size
		}
	}
	if live != s.stats.LiveBytes {
		out = append(out, fmt.Sprintf("cas: live bytes counter %d != recomputed %d", s.stats.LiveBytes, live))
	}
	if refBytes != s.stats.RefBytes {
		out = append(out, fmt.Sprintf(
			"cas: refcount×size %d != live logical extent bytes counter %d", refBytes, s.stats.RefBytes))
	}
	if dead != s.pendingBytes {
		out = append(out, fmt.Sprintf("cas: dead bytes counter %d != recomputed %d", s.pendingBytes, dead))
	}
	if s.stats.InternedBytes != s.stats.LiveBytes+s.pendingBytes+s.stats.FreedBytes {
		out = append(out, fmt.Sprintf(
			"cas: conservation broken — interned %d != live %d + dead %d + freed %d",
			s.stats.InternedBytes, s.stats.LiveBytes, s.pendingBytes, s.stats.FreedBytes))
	}
	sort.Strings(out)
	return out
}
