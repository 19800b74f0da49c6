package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"univistor/internal/meta"
	"univistor/internal/mpi"
	"univistor/internal/topology"
)

// TestRepeatedFlushWaitFlushBlocks is the regression for the one-shot
// completion-event reuse bug: after the first flush completed, WaitFlush during any
// later flush of the same file returned immediately (the stale event was
// still set) instead of blocking until that flush finished.
func TestRepeatedFlushWaitFlushBlocks(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.FlushOnClose = false // flushes triggered by hand below
	})
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, err := c.Open("f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		fs := sys.files["f"]
		p := c.Rank().P

		if err := f.WriteAt(0, 4*mib, nil); err != nil {
			t.Errorf("write 1: %v", err)
		}
		sys.triggerFlush(p, fs)
		sys.WaitFlush(p, "f")
		if got := sys.CachedBytes("f"); got != 0 {
			t.Errorf("after first flush: %d bytes still pending", got)
		}

		if err := f.WriteAt(4*mib, 4*mib, nil); err != nil {
			t.Errorf("write 2: %v", err)
		}
		sys.triggerFlush(p, fs)
		sys.WaitFlush(p, "f")
		// With the reused event, WaitFlush returns while the second flush
		// is still in flight: pending bytes non-zero, the flush still set.
		if got := sys.CachedBytes("f"); got != 0 {
			t.Errorf("after second flush: %d bytes still pending — WaitFlush returned early", got)
		}
		if fs.flush != nil {
			t.Error("after second WaitFlush: flush still in progress")
		}
		f.Close()
	})
}

// TestDegradedReadServedFromFlushedCopy crashes a producer node after the
// flush and checks the survivor's read is rescued from the PFS copy: no
// error, correct bytes, and the rescue recorded in BytesReadDegraded.
func TestDegradedReadServedFromFlushedCopy(t *testing.T) {
	w, sys := testEnv(t, nil)
	payload := bytes.Repeat([]byte("d"), int(4*mib))
	var got []byte
	var readErr error
	runApp(t, w, sys, 2, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		off := int64(c.Rank().Rank()) * 4 * mib
		data := payload
		if c.Rank().Rank() == 1 {
			data = bytes.Repeat([]byte("e"), int(4*mib))
		}
		if err := f.WriteAt(off, 4*mib, data); err != nil {
			t.Errorf("write: %v", err)
		}
		f.Close()
		sys.WaitFlush(c.Rank().P, "f")
		c.Rank().Barrier()
		if c.Rank().Rank() == 1 {
			sys.FailNode(0) // rank 0 produced [0, 4 MiB) on node 0
			rf, _ := c.Open("f", mpi.ReadOnly)
			got, readErr = rf.ReadAt(0, 4*mib)
			rf.Close()
		} else {
			rf, _ := c.Open("f", mpi.ReadOnly)
			rf.Close()
		}
	})
	if readErr != nil {
		t.Fatalf("degraded read: %v", readErr)
	}
	if !bytes.Equal(got, payload) {
		t.Error("degraded read returned wrong bytes")
	}
	st := sys.Stats()
	if st.BytesReadDegraded != 4*mib {
		t.Errorf("BytesReadDegraded = %d, want %d", st.BytesReadDegraded, 4*mib)
	}
	if v := sys.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariants violated after degraded read: %v", v)
	}
}

// TestDegradedReadRefusesUnflushedSegment crashes a producer node after a
// completed flush and reads one of its segments that no completed flush
// holds: one written after the flush, one rewritten after it, one deleted
// and written anew, and one written after it whose own flush is still
// running. Each read must fail with ErrDataLost, while a segment the
// completed flush holds is still rescued from that flush's file.
func TestDegradedReadRefusesUnflushedSegment(t *testing.T) {
	const seg = 4 * mib
	for _, tc := range []struct {
		name     string
		off      int64 // rank 0's segment written after the flush
		delete   bool  // delete it first
		inFlight bool  // read it while a second flush runs
	}{
		{"new-segment", 4 * seg, false, false},
		{"rewritten-segment", 0, false, false},
		{"deleted-and-rewritten-segment", 0, true, false},
		{"segment-of-a-running-flush", 4 * seg, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, sys := testEnv(t, func(_ *topology.Config, cc *Config) {
				cc.FlushOnClose = false
			})
			var lostErr, keptErr error
			runApp(t, w, sys, 2, 1, func(c *Client) {
				r := c.Rank().Rank()
				f, _ := c.Open("f", mpi.WriteOnly)
				// Rank 0 on node 0 writes [0, seg) and [2 seg, 3 seg).
				for _, off := range []int64{int64(r) * seg, int64(r+2) * seg} {
					if err := f.WriteAt(off, seg, nil); err != nil {
						t.Errorf("write: %v", err)
					}
				}
				if err := f.Flush(); err != nil {
					t.Errorf("flush: %v", err)
				}
				sys.WaitFlush(c.Rank().P, "f")
				if r == 0 {
					if tc.delete {
						if _, err := f.Delete(tc.off, seg); err != nil {
							t.Errorf("delete: %v", err)
						}
					}
					if err := f.WriteAt(tc.off, seg, nil); err != nil {
						t.Errorf("write after flush: %v", err)
					}
				}
				if tc.inFlight {
					if err := f.Flush(); err != nil {
						t.Errorf("second flush: %v", err)
					}
				}
				f.Close()
				rf, _ := c.Open("f", mpi.ReadOnly)
				if r == 1 {
					if running := f.fs.flush != nil; running != tc.inFlight {
						t.Errorf("flush running at the crash = %v, want %v", running, tc.inFlight)
					}
					sys.FailNode(0)
					_, lostErr = rf.ReadAt(tc.off, seg)
					_, keptErr = rf.ReadAt(2*seg, seg)
				}
				rf.Close()
				sys.WaitFlush(c.Rank().P, "f")
			})
			if !errors.Is(lostErr, ErrDataLost) {
				t.Errorf("read of a segment no completed flush holds = %v, want ErrDataLost", lostErr)
			}
			if keptErr != nil {
				t.Errorf("read of a flushed segment: %v", keptErr)
			}
			if got := sys.Stats().BytesReadDegraded; got != seg {
				t.Errorf("BytesReadDegraded = %d, want %d (the flushed segment only)", got, seg)
			}
		})
	}
}

// TestDegradedReadLostWithoutCopy crashes the producer before any flush or
// replication: the read must fail with ErrDataLost, never fabricate bytes.
func TestDegradedReadLostWithoutCopy(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.FlushOnClose = false
	})
	var readErr error
	runApp(t, w, sys, 2, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		off := int64(c.Rank().Rank()) * 4 * mib
		if err := f.WriteAt(off, 4*mib, nil); err != nil {
			t.Errorf("write: %v", err)
		}
		f.Close()
		c.Rank().Barrier()
		if c.Rank().Rank() == 1 {
			sys.FailNode(0)
			rf, _ := c.Open("f", mpi.ReadOnly)
			_, readErr = rf.ReadAt(0, 4*mib)
			rf.Close()
		} else {
			rf, _ := c.Open("f", mpi.ReadOnly)
			rf.Close()
		}
	})
	if !errors.Is(readErr, ErrDataLost) {
		t.Fatalf("read after crash = %v, want ErrDataLost", readErr)
	}
	if v := sys.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariants violated after data loss: %v", v)
	}
}

// TestCheckInvariantsDetectsCorruption corrupts each ledger the checker
// guards and verifies the corresponding violation is reported — and that
// undoing the corruption silences it again.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	w, sys := testEnv(t, nil)
	runApp(t, w, sys, 2, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		off := int64(c.Rank().Rank()) * 4 * mib
		if err := f.WriteAt(off, 4*mib, nil); err != nil {
			t.Errorf("write: %v", err)
		}
		f.Close()
		sys.WaitFlush(c.Rank().P, "f")
	})
	if v := sys.CheckInvariants(); len(v) != 0 {
		t.Fatalf("clean system reports violations: %v", v)
	}
	fs := sys.files["f"]

	expect := func(what, substr string, corrupt, restore func()) {
		t.Helper()
		corrupt()
		v := sys.CheckInvariants()
		found := false
		for _, line := range v {
			if strings.Contains(line, substr) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no violation containing %q (got %v)", what, substr, v)
		}
		restore()
		if v := sys.CheckInvariants(); len(v) != 0 {
			t.Errorf("%s: violations persist after restore: %v", what, v)
		}
	}

	expect("cachedTotal drift", "cachedTotal",
		func() { fs.cachedTotal += 5 },
		func() { fs.cachedTotal -= 5 })

	expect("written ledger drift", "records lost",
		func() { fs.totalWritten += 7 },
		func() { fs.totalWritten -= 7 })

	store := sys.meta.(*ringMeta).store
	recs := sys.metaCoveringFree(fs.fid, 0, fs.logicalSize)
	if len(recs) == 0 {
		t.Fatal("no metadata records to corrupt")
	}
	lost := recs[0]
	expect("dropped metadata record", "records lost",
		func() { store.Delete(lost.Key()) },
		func() { store.Put(lost) })

	expect("stats counter drift", "BytesWritten",
		func() { sys.stats.BytesWritten[meta.TierDRAM] += 3 },
		func() { sys.stats.BytesWritten[meta.TierDRAM] -= 3 })

	expect("read ledger drift", "read counters",
		func() { sys.stats.BytesReadLocal += 9 },
		func() { sys.stats.BytesReadLocal -= 9 })
}
