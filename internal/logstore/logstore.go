// Package logstore implements the per-process log files of Distributed and
// Hierarchical data Placement (paper §II-B1). Each client process owns one
// log per storage tier; data is appended log-structured, so every write is
// sequential on the underlying device. Internally a log's space is a set of
// fixed-size chunks with a free-chunk stack: allocating pops a chunk ID,
// deleting or overwriting pushes it back for reuse.
//
// A log exposes a *logical* append space: physical addresses handed out by
// Append are contiguous (this is the A_i of the virtual-address equation),
// while the chunk table beneath maps logical chunk slots to recycled
// physical chunks. This keeps the VA scheme of §II-B2 intact across chunk
// reuse.
//
// Logs track sizes and addresses only. Payload bytes live in the owning
// file's authoritative extent map (core's fileState.content), which serves
// every read.
package logstore

import (
	"fmt"

	"univistor/internal/meta"
)

// Log is one process's log file on one storage tier.
type Log struct {
	owner     int // producing client process (global rank)
	chunkSize int64
	capacity  int64 // bytes; multiple of chunkSize

	cursor    int64       // next pristine logical append address
	table     []chunkSlot // chunk table, indexed by logical chunk slot
	backed    int         // slots backed by a physical chunk
	freeSlots int         // punched slots available for reuse
	freeStack []int       // recycled physical chunk IDs (LIFO)
	nextChunk int         // next never-used physical chunk ID
	liveBytes int64
}

// chunkSlot is one entry of a log's chunk table. The table is dense:
// appends back slots from zero upward, so it is as long as the highest slot
// ever backed, and every punched slot lies below the first pristine slot.
type chunkSlot struct {
	chunk  int  // physical chunk ID, when backed
	backed bool // a physical chunk backs the slot
	free   bool // punched and available for reuse
}

// NewLog creates a log of the given capacity with chunkSize-byte chunks.
// Capacity is rounded down to a whole number of chunks; a capacity smaller
// than one chunk yields a log that rejects every append.
func NewLog(owner int, capacity, chunkSize int64) *Log {
	if chunkSize <= 0 {
		panic(fmt.Sprintf("logstore: chunk size must be positive, got %d", chunkSize))
	}
	if capacity < 0 {
		capacity = 0
	}
	capacity -= capacity % chunkSize
	return &Log{owner: owner, chunkSize: chunkSize, capacity: capacity}
}

// Owner returns the producing process's global rank.
func (l *Log) Owner() int { return l.owner }

// Capacity returns the log's total capacity in bytes (C_i in Eq. 1).
func (l *Log) Capacity() int64 { return l.capacity }

// ChunkSize returns the chunk granularity in bytes.
func (l *Log) ChunkSize() int64 { return l.chunkSize }

// Used returns the live (non-reclaimed) bytes.
func (l *Log) Used() int64 { return l.liveBytes }

// Free returns the bytes still appendable before the log spills.
func (l *Log) Free() int64 { return l.availableBytes() }

// availableBytes counts the space still appendable: the pristine region
// past the cursor plus recycled whole slots (whose reuse additionally
// requires a contiguous run long enough for the segment).
func (l *Log) availableBytes() int64 {
	pristine := l.capacity - l.cursor
	if pristine < 0 {
		pristine = 0
	}
	return pristine + int64(l.freeSlots)*l.chunkSize
}

// reserveLogical picks the logical address for a new segment of the given
// size: pristine cursor space when it fits, otherwise a contiguous run of
// punched slots (the log file is a fixed-size mmap region; recycled space
// is reused in place, keeping every address below the capacity so the
// virtual-address encoding of Eq. 1 stays valid).
func (l *Log) reserveLogical(size int64) (int64, bool) {
	if l.cursor+size <= l.capacity {
		addr := l.cursor
		l.cursor += size
		return addr, true
	}
	need := (size + l.chunkSize - 1) / l.chunkSize
	// Candidate slots, in ascending order: the punched slots, all below the
	// first pristine slot, then the untouched pristine slots past the
	// cursor up to the capacity (a run may combine both).
	pristineFirst := (l.cursor + l.chunkSize - 1) / l.chunkSize
	pristine := l.capacity/l.chunkSize - pristineFirst
	if int64(l.freeSlots)+pristine < need {
		return 0, false
	}
	runStart, runLen := int64(-1), int64(0)
	for s := int64(0); s < pristineFirst && s < int64(len(l.table)); s++ {
		if !l.table[s].free {
			continue
		}
		if runLen > 0 && s == runStart+runLen {
			runLen++
		} else {
			runStart, runLen = s, 1
		}
		if runLen == need {
			return l.claim(runStart, need, pristineFirst), true
		}
	}
	// The pristine slots extend the last punched run when it ends just
	// below them, and otherwise form one run of their own.
	if runLen == 0 || runStart+runLen != pristineFirst {
		runStart, runLen = pristineFirst, 0
	}
	if runLen+pristine >= need {
		return l.claim(runStart, need, pristineFirst), true
	}
	return 0, false
}

// claim takes the run of need slots starting at runStart off the free
// slots, advancing the cursor past any pristine slot the run covers, and
// returns the run's logical address.
func (l *Log) claim(runStart, need, pristineFirst int64) int64 {
	for s := runStart; s < runStart+need; s++ {
		if s < int64(len(l.table)) && l.table[s].free {
			l.table[s].free = false
			l.freeSlots--
		}
		if s >= pristineFirst && (s+1)*l.chunkSize > l.cursor {
			l.cursor = (s + 1) * l.chunkSize
		}
	}
	return runStart * l.chunkSize
}

// Append reserves size bytes at the log head and returns the segment's
// physical address A within the log. It returns ok=false, reserving
// nothing, when the log lacks space — the caller then spills to the next
// tier.
func (l *Log) Append(size int64) (addr int64, ok bool) {
	if size <= 0 {
		return 0, false
	}
	addr, ok = l.reserveLogical(size)
	if !ok {
		return 0, false
	}
	// Back every logical slot the segment touches with a physical chunk,
	// allocating on first touch.
	last := (addr + size - 1) / l.chunkSize
	if n := last + 1 - int64(len(l.table)); n > 0 {
		l.table = append(l.table, make([]chunkSlot, n)...)
	}
	for s := addr / l.chunkSize; s <= last; s++ {
		if l.table[s].backed {
			continue
		}
		phys := l.allocChunk()
		if phys < 0 {
			panic("logstore: chunk allocation failed after capacity check")
		}
		l.table[s].chunk, l.table[s].backed = phys, true
		l.backed++
	}
	l.liveBytes += size
	return addr, true
}

// allocChunk pops a recycled chunk or mints a fresh one; -1 when exhausted.
func (l *Log) allocChunk() int {
	if n := len(l.freeStack); n > 0 {
		id := l.freeStack[n-1]
		l.freeStack = l.freeStack[:n-1]
		return id
	}
	if int64(l.nextChunk)*l.chunkSize >= l.capacity {
		return -1
	}
	id := l.nextChunk
	l.nextChunk++
	return id
}

// Punch releases the chunk backing logical slot, pushing its physical chunk
// onto the free stack for reuse. Punching an unallocated slot is a no-op.
// The address space is not compacted (log-structured semantics).
func (l *Log) Punch(slot int64) {
	if slot < 0 || slot >= int64(len(l.table)) || !l.table[slot].backed {
		return
	}
	e := &l.table[slot]
	e.backed = false
	l.backed--
	l.freeStack = append(l.freeStack, e.chunk)
	if !e.free {
		e.free = true
		l.freeSlots++
	}
	// Live-byte accounting: a punched chunk's bytes are dead.
	end := (slot + 1) * l.chunkSize
	if end > l.cursor {
		end = l.cursor
	}
	start := slot * l.chunkSize
	if end > start {
		l.liveBytes -= end - start
		if l.liveBytes < 0 {
			l.liveBytes = 0
		}
	}
}

// PunchRange releases every chunk lying entirely inside the log range
// [addr, addr+size): the chunks of a deleted or migrated segment. Edge
// chunks the range only partly covers stay live for their neighbours.
func (l *Log) PunchRange(addr, size int64) {
	for slot := (addr + l.chunkSize - 1) / l.chunkSize; slot < (addr+size)/l.chunkSize; slot++ {
		l.Punch(slot)
	}
}

// Slots returns the number of logical chunk slots currently backed by a
// physical chunk.
func (l *Log) Slots() int { return l.backed }

// FreeChunks returns the free-stack depth (recycled chunks awaiting reuse).
func (l *Log) FreeChunks() int { return len(l.freeStack) }

// Cursor returns the next logical append address.
func (l *Log) Cursor() int64 { return l.cursor }

// LogSet is one process's logs across all tiers plus the derived VA address
// space. It implements the spill walk of DHP: appends target the fastest
// tier with room, falling through tier by tier.
type LogSet struct {
	owner int
	space meta.AddressSpace
	logs  [meta.NumTiers]*Log
}

// NewLogSet builds per-tier logs with the given capacities and chunk size.
// Tiers with zero capacity are skipped during the spill walk. The PFS tier
// is always present and unbounded (modelled with a very large capacity).
func NewLogSet(owner int, caps [meta.NumTiers]int64, chunkSize int64) (*LogSet, error) {
	// Round capacities to chunk multiples before deriving the VA layout so
	// Encode/Decode agree with what the logs actually accept.
	for i := range caps {
		if caps[i] < 0 {
			return nil, fmt.Errorf("logstore: tier %s capacity %d negative", meta.Tier(i), caps[i])
		}
		caps[i] -= caps[i] % chunkSize
	}
	const pfsCap = int64(1) << 62
	space, err := meta.NewAddressSpace(caps)
	if err != nil {
		return nil, err
	}
	ls := &LogSet{owner: owner, space: space}
	for t := 0; t < meta.NumTiers; t++ {
		c := caps[t]
		if meta.Tier(t) == meta.TierPFS {
			c = pfsCap - pfsCap%chunkSize
		}
		ls.logs[t] = NewLog(owner, c, chunkSize)
	}
	return ls, nil
}

// Space returns the VA address space of this process's logs.
func (ls *LogSet) Space() meta.AddressSpace { return ls.space }

// Log returns the tier's log.
func (ls *LogSet) Log(t meta.Tier) *Log { return ls.logs[t] }

// Append places size bytes on the fastest tier with room — the unbounded
// PFS log last — and returns the segment's VA and the tier chosen.
func (ls *LogSet) Append(size int64) (va int64, tier meta.Tier, err error) {
	for t := 0; t < meta.NumTiers; t++ {
		if meta.Tier(t) != meta.TierPFS && ls.space.Cap(meta.Tier(t)) == 0 {
			continue
		}
		addr, ok := ls.logs[t].Append(size)
		if !ok {
			continue
		}
		va, err := ls.space.Encode(meta.Tier(t), addr)
		if err != nil {
			return 0, 0, err
		}
		return va, meta.Tier(t), nil
	}
	return 0, 0, fmt.Errorf("logstore: proc %d: no tier can hold %d bytes", ls.owner, size)
}
