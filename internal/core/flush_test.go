package core

import (
	"math"
	"runtime"
	"testing"

	"univistor/internal/mpi"
	"univistor/internal/topology"
)

// triggerBytes writes records 4 KiB segments into one shared file from 8
// ranks on 2 nodes, flushes it with dedup on (one CAS block per segment),
// rewrites every segment and returns the bytes the second flush trigger
// allocates. The first flush warms the trigger's pooled buffers.
func triggerBytes(t *testing.T, records int) uint64 {
	t.Helper()
	const ranks, seg = 8, 4 * kib
	w, sys := testEnv(t, func(_ *topology.Config, cc *Config) {
		cc.Dedup = true
		cc.DedupBlockBytes = seg
	})
	w.E.SetDifferentialCheck(false) // the oracle's global re-solve allocates
	var allocated uint64
	runApp(t, w, sys, ranks, ranks/2, func(c *Client) {
		f, err := c.Open("f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		write := func() {
			for i := c.Rank().Rank(); i < records; i += ranks {
				if err := f.WriteAt(int64(i)*seg, seg, nil); err != nil {
					t.Errorf("write: %v", err)
				}
			}
		}
		write()
		if err := f.Flush(); err != nil {
			t.Errorf("flush: %v", err)
		}
		sys.WaitFlush(c.Rank().P, "f")
		write()
		c.Rank().Barrier()
		if c.Rank().Rank() == 0 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sys.triggerFlush(c.Rank().P, f.fs)
			runtime.ReadMemStats(&after)
			allocated = after.TotalAlloc - before.TotalAlloc
		}
		sys.WaitFlush(c.Rank().P, "f")
		f.Close()
	})
	if got := len(sys.Segments("f")); got != records {
		t.Fatalf("%d segments, want %d", got, records)
	}
	return allocated
}

// A flush trigger allocates next to nothing per record: doubling the
// records of the file adds at most maxBytesPerRecord heap bytes per extra
// record to the trigger (8 measured). What remains is the block map the
// CAS store copies the plan's hashes into, 8 bytes a block. A trigger that
// allocates its covering, its per-server grouping, its flush layout and
// its dedup plan afresh costs about 400 bytes per record.
func TestFlushTriggerAllocatesLittlePerRecord(t *testing.T) {
	const n, maxBytesPerRecord = 512, 32
	base := triggerBytes(t, n)
	double := triggerBytes(t, 2*n)
	per := (float64(double) - float64(base)) / n
	t.Logf("%.1f bytes per extra record (%d records: %d, %d records: %d)", per, n, base, 2*n, double)
	if per > maxBytesPerRecord {
		t.Errorf("%.1f bytes allocated per extra record, want ≤ %d", per, maxBytesPerRecord)
	}
}

// A flush lays each flushing server's segments back to back, in offset
// order, from the start of that server's range of the flush file, where
// degraded reads look them up. A later flush of the same file places
// only segments no earlier flush holds; the others stay where the
// earlier flush put them.
func TestFlushLayoutPlacesSegmentsByServer(t *testing.T) {
	const seg, unplaced = 64 * kib, int64(math.MaxInt64)
	w, sys := testEnv(t, nil)
	var first, second [6]int64
	var firstRuns, secondRuns [6]*flushRun
	runApp(t, w, sys, 2, 1, func(c *Client) {
		f, err := c.Open("f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		r := c.Rank().Rank()
		write := func() {
			for i := r; i < 6; i += 2 {
				if err := f.WriteAt(int64(i)*seg, seg, nil); err != nil {
					t.Errorf("write: %v", err)
				}
			}
		}
		layout := func(into *[6]int64, runs *[6]*flushRun) {
			sys.WaitFlush(c.Rank().P, "f")
			if r == 0 {
				for i := range into {
					into[i] = unplaced
					if s := f.fs.slot(int64(i) * seg); s != nil && s.run != nil {
						into[i], runs[i] = s.pos, s.run
					}
				}
			}
			c.Rank().Barrier()
		}
		flush := func(into *[6]int64, runs *[6]*flushRun) {
			if err := f.Flush(); err != nil {
				t.Errorf("flush: %v", err)
			}
			layout(into, runs)
		}
		write()
		flush(&first, &firstRuns)
		if r == 1 {
			write()
		}
		flush(&second, &secondRuns)
		f.Close()
	})
	// Rank 0's server flushes [0, 3 seg) and rank 1's the rest; the second
	// flush moves only rank 1's rewrites, into [0, 3 seg) of its own file,
	// and rank 0's segments keep their places in the first flush's file.
	if want := [6]int64{0, 3 * seg, seg, 4 * seg, 2 * seg, 5 * seg}; first != want {
		t.Errorf("first flush layout %v, want %v", first, want)
	}
	if want := [6]int64{0, 0, seg, seg, 2 * seg, 2 * seg}; second != want {
		t.Errorf("second flush layout %v, want %v", second, want)
	}
	for i, run := range secondRuns {
		if held := run == firstRuns[i]; held != (i%2 == 0) {
			t.Errorf("segment %d held by the first flush after the second: %v, want %v", i, held, i%2 == 0)
		}
	}
}

// FlushStats reports the last completed flush while a later one runs: its
// window is the earlier flush's, never the later trigger's start paired
// with the earlier end.
func TestFlushStatsDuringSecondFlush(t *testing.T) {
	w, sys := testEnv(t, func(_ *topology.Config, cc *Config) {
		cc.FlushOnClose = false // flushes triggered by hand below
	})
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, err := c.Open("f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		p := c.Rank().P
		if err := f.WriteAt(0, 4*mib, nil); err != nil {
			t.Errorf("write 1: %v", err)
		}
		sys.triggerFlush(p, f.fs)
		sys.WaitFlush(p, "f")
		bytes1, start1, end1, ok := sys.FlushStats("f")
		if !ok || bytes1 != 4*mib || start1 >= end1 {
			t.Errorf("first flush stats = %d bytes [%v, %v], %v", bytes1, start1, end1, ok)
		}

		p.Sleep(1)
		if err := f.WriteAt(4*mib, 2*mib, nil); err != nil {
			t.Errorf("write 2: %v", err)
		}
		sys.triggerFlush(p, f.fs)
		if b, start, end, _ := sys.FlushStats("f"); b != bytes1 || start != start1 || end != end1 {
			t.Errorf("during the second flush: %d bytes [%v, %v], want the first flush's %d bytes [%v, %v]",
				b, start, end, bytes1, start1, end1)
		}
		sys.WaitFlush(p, "f")
		if b, start, end, _ := sys.FlushStats("f"); b != 2*mib || start <= end1 || start >= end {
			t.Errorf("second flush stats = %d bytes [%v, %v], want %d bytes starting after %v",
				b, start, end, 2*mib, end1)
		}
		f.Close()
	})
}
