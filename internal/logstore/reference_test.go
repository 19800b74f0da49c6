package logstore

import (
	"math/rand"
	"sort"
	"testing"
)

// mapLog is the map-based chunk table Log kept before its table became a
// dense slice. It is the reference the differential test drives beside Log:
// both must hand out the same addresses and report the same accounting for
// any sequence of appends and punches.
type mapLog struct {
	chunkSize int64
	capacity  int64

	cursor     int64
	chunkTable map[int64]int
	freeStack  []int
	freeSlots  map[int64]bool
	nextChunk  int
	liveBytes  int64
}

func newMapLog(capacity, chunkSize int64) *mapLog {
	capacity -= capacity % chunkSize
	return &mapLog{
		chunkSize:  chunkSize,
		capacity:   capacity,
		chunkTable: map[int64]int{},
		freeSlots:  map[int64]bool{},
	}
}

func (l *mapLog) Used() int64 { return l.liveBytes }

func (l *mapLog) Free() int64 {
	pristine := l.capacity - l.cursor
	if pristine < 0 {
		pristine = 0
	}
	return pristine + int64(len(l.freeSlots))*l.chunkSize
}

func (l *mapLog) Slots() int { return len(l.chunkTable) }

func (l *mapLog) FreeChunks() int { return len(l.freeStack) }

func (l *mapLog) reserveLogical(size int64) (int64, bool) {
	if l.cursor+size <= l.capacity {
		addr := l.cursor
		l.cursor += size
		return addr, true
	}
	need := (size + l.chunkSize - 1) / l.chunkSize
	slots := make([]int64, 0, len(l.freeSlots)+4)
	for s := range l.freeSlots {
		slots = append(slots, s)
	}
	pristineFirst := (l.cursor + l.chunkSize - 1) / l.chunkSize
	for s := pristineFirst; s < l.capacity/l.chunkSize; s++ {
		slots = append(slots, s)
	}
	if int64(len(slots)) < need {
		return 0, false
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	runStart, runLen := int64(-1), int64(0)
	for i, s := range slots {
		if i > 0 && s == slots[i-1]+1 {
			runLen++
		} else {
			runStart, runLen = s, 1
		}
		if runLen == need {
			for k := int64(0); k < need; k++ {
				slot := runStart + k
				delete(l.freeSlots, slot)
				if slot >= pristineFirst && (slot+1)*l.chunkSize > l.cursor {
					l.cursor = (slot + 1) * l.chunkSize
				}
			}
			return runStart * l.chunkSize, true
		}
	}
	return 0, false
}

func (l *mapLog) Append(size int64) (int64, bool) {
	if size <= 0 {
		return 0, false
	}
	addr, ok := l.reserveLogical(size)
	if !ok {
		return 0, false
	}
	for slot := addr / l.chunkSize; slot <= (addr+size-1)/l.chunkSize; slot++ {
		if _, have := l.chunkTable[slot]; have {
			continue
		}
		l.chunkTable[slot] = l.allocChunk()
	}
	l.liveBytes += size
	return addr, true
}

func (l *mapLog) allocChunk() int {
	if n := len(l.freeStack); n > 0 {
		id := l.freeStack[n-1]
		l.freeStack = l.freeStack[:n-1]
		return id
	}
	id := l.nextChunk
	l.nextChunk++
	return id
}

func (l *mapLog) Punch(slot int64) {
	phys, have := l.chunkTable[slot]
	if !have {
		return
	}
	delete(l.chunkTable, slot)
	l.freeStack = append(l.freeStack, phys)
	l.freeSlots[slot] = true
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

func (l *mapLog) PunchRange(addr, size int64) {
	for slot := (addr + l.chunkSize - 1) / l.chunkSize; slot < (addr+size)/l.chunkSize; slot++ {
		l.Punch(slot)
	}
}

// TestLogMatchesMapReference drives Log and the map-based reference with the
// same random appends, punches and range punches — unaligned sizes, punches
// of unbacked and out-of-range slots, and logs filled well past their
// cursor so most appends recycle punched runs — and requires identical
// addresses, results, backing and chunk table after every step.
func TestLogMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		chunk := int64(rng.Intn(16) + 1)
		capacity := int64(rng.Intn(64))*chunk + int64(rng.Intn(int(chunk)))
		l, ref := NewLog(0, capacity, chunk), newMapLog(capacity, chunk)
		maxSize := int(4*chunk) + 1
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(10); {
			case k < 5:
				size := int64(rng.Intn(maxSize)) - 1 // includes 0 and -1
				a, ok := l.Append(size)
				ra, rok := ref.Append(size)
				if a != ra || ok != rok {
					t.Fatalf("seed %d op %d: Append(%d) = (%d, %v), reference (%d, %v)",
						seed, op, size, a, ok, ra, rok)
				}
			case k < 8:
				slot := int64(rng.Intn(int(capacity/chunk)+3)) - 1
				l.Punch(slot)
				ref.Punch(slot)
			default:
				addr := int64(rng.Intn(int(capacity) + 1))
				size := int64(rng.Intn(maxSize * 2))
				l.PunchRange(addr, size)
				ref.PunchRange(addr, size)
			}
			if l.Slots() != ref.Slots() || l.FreeChunks() != ref.FreeChunks() ||
				l.Free() != ref.Free() || l.Used() != ref.Used() || l.Cursor() != ref.cursor {
				t.Fatalf("seed %d op %d: slots %d free chunks %d free %d used %d cursor %d; "+
					"reference %d %d %d %d %d", seed, op,
					l.Slots(), l.FreeChunks(), l.Free(), l.Used(), l.Cursor(),
					ref.Slots(), ref.FreeChunks(), ref.Free(), ref.Used(), ref.cursor)
			}
			for s := range l.table {
				chunk, have := chunkAt(l, int64(s))
				rchunk, rhave := ref.chunkTable[int64(s)]
				if have != rhave || chunk != rchunk || l.table[s].free != ref.freeSlots[int64(s)] {
					t.Fatalf("seed %d op %d: slot %d backed %v by %d free %v; reference %v by %d free %v",
						seed, op, s, have, chunk, l.table[s].free, rhave, rchunk, ref.freeSlots[int64(s)])
				}
			}
		}
	}
}

// BenchmarkLogAppendPunch times one warm recycle of a full log: a
// three-chunk segment is punched and a segment of the same size appended
// into the run it freed. It must report 0 allocs/op.
func BenchmarkLogAppendPunch(b *testing.B) {
	const chunk, slots, seg = 1 << 20, 256, 3 << 20
	l := NewLog(0, slots*chunk, chunk)
	for l.Free() >= seg {
		l.Append(seg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := int64(i%(slots/3)) * seg
		l.PunchRange(addr, seg)
		if got, ok := l.Append(seg); !ok || got != addr {
			b.Fatalf("recycled append at (%d, %v), want %d", got, ok, addr)
		}
	}
}
