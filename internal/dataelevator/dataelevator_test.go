package dataelevator

import (
	"bytes"
	"math"
	"testing"

	"univistor/internal/bb"
	"univistor/internal/lustre"
	"univistor/internal/mpi"
	"univistor/internal/mpiio"
	"univistor/internal/schedule"
	"univistor/internal/sim"
	"univistor/internal/topology"
)

const mib = int64(1) << 20

func testSetup(t *testing.T) (*mpi.World, *Driver) {
	t.Helper()
	tc := topology.Cori()
	tc.Nodes = 2
	tc.CoresPerNode = 8
	tc.BBNodes = 2
	tc.BBCapPerNode = 256 * mib
	tc.BBStripeSize = 1 * mib
	tc.OSTs = 8
	e := sim.NewEngine()
	w := mpi.NewWorld(e, topology.New(e, tc), schedule.CFS)
	bbs, err := bb.New(w.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(w, bbs, lustre.NewFS(w.Cluster))
	if err != nil {
		t.Fatal(err)
	}
	return w, d
}

func TestConfigValidation(t *testing.T) {
	w, _ := testSetup(t)
	if _, err := New(w, nil, lustre.NewFS(w.Cluster)); err == nil {
		t.Error("nil BB accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	w, d := testSetup(t)
	env, _ := mpiio.NewEnv("dataelevator", d)
	payload := bytes.Repeat([]byte("d"), int(1*mib))
	var got []byte
	w.Launch("app", 2, func(r *mpi.Rank) {
		f, err := env.Open(r, "f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		off := int64(r.Rank()) * mib
		if err := f.WriteAt(off, mib, payload); err != nil {
			t.Errorf("write: %v", err)
		}
		f.Close()
		rf, err := env.Open(r, "f", mpi.ReadOnly)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		if r.Rank() == 0 {
			got, _ = rf.ReadAt(mib, mib) // the other rank's data
		}
		rf.Close()
	}, mpi.LaunchOpts{RanksPerNode: 1})
	w.E.Run()
	if !bytes.Equal(got, payload) {
		t.Error("DE round trip mismatch")
	}
}

func TestFlushRunsAsynchronouslyAfterClose(t *testing.T) {
	w, d := testSetup(t)
	env, _ := mpiio.NewEnv("dataelevator", d)
	var closeAt, flushEnd sim.Time
	w.Launch("app", 2, func(r *mpi.Rank) {
		f, _ := env.Open(r, "f", mpi.WriteOnly)
		f.WriteAt(int64(r.Rank())*16*mib, 16*mib, nil)
		f.Close()
		if r.Rank() == 0 {
			closeAt = r.Now()
		}
		d.WaitFlush(r.P, "f")
		if r.Rank() == 0 {
			bytes_, start, end, ok := d.FlushStats("f")
			if !ok || bytes_ != 32*mib {
				t.Errorf("flush stats: %d bytes, ok=%v", bytes_, ok)
			}
			if start < closeAt {
				t.Errorf("flush started at %v before close at %v", start, closeAt)
			}
			flushEnd = end
		}
	}, mpi.LaunchOpts{RanksPerNode: 1})
	w.E.Run()
	if w.E.Deadlocked() != 0 {
		t.Fatalf("deadlocked: %d", w.E.Deadlocked())
	}
	if flushEnd <= closeAt {
		t.Errorf("flush end %v not after close %v (must be asynchronous work)", flushEnd, closeAt)
	}
	// The flushed copy exists on the PFS.
	if _, ok := d.PFS.Open("deflush:f"); !ok {
		t.Error("no flushed file on the PFS")
	}
}

func TestReadServedFromBBCacheAfterFlush(t *testing.T) {
	w, d := testSetup(t)
	env, _ := mpiio.NewEnv("dataelevator", d)
	var readDur sim.Time
	w.Launch("app", 1, func(r *mpi.Rank) {
		f, _ := env.Open(r, "f", mpi.WriteOnly)
		f.WriteAt(0, 4*mib, nil)
		f.Close()
		d.WaitFlush(r.P, "f")
		rf, _ := env.Open(r, "f", mpi.ReadOnly)
		start := r.Now()
		rf.ReadAt(0, 4*mib)
		readDur = r.Now() - start
		rf.Close()
	}, mpi.LaunchOpts{RanksPerNode: 1})
	w.E.Run()
	// 4 MiB from 2 BB nodes at ~5.7 GB/s each ≫ faster than OST reads.
	if float64(readDur) > 0.01 {
		t.Errorf("post-flush read took %v, expected BB-cache speed", readDur)
	}
}

func TestSharedBBFileContentionVsPrivate(t *testing.T) {
	// Many writers on DE's one shared BB file are capped by bbLockEff; the
	// same aggregate traffic on private files is not. This is the
	// UniviStor/BB-vs-DE mechanism, asserted at the driver level.
	w, d := testSetup(t)
	env, _ := mpiio.NewEnv("dataelevator", d)
	var deDur sim.Time
	w.Launch("app", 4, func(r *mpi.Rank) {
		f, _ := env.Open(r, "f", mpi.WriteOnly)
		start := r.Now()
		f.WriteAt(int64(r.Rank())*32*mib, 32*mib, nil)
		if dd := r.Now() - start; dd > deDur {
			deDur = dd
		}
		f.Close()
	}, mpi.LaunchOpts{RanksPerNode: 2})
	w.E.Run()

	// Reference: raw BB bandwidth for the same aggregate (128 MiB over
	// 2 × 1... here 2 × 5.7 GB/s locked at 45%).
	agg := float64(w.Cluster.Cfg.BBNodes) * w.Cluster.Cfg.BBBWPerNode
	lockCap := bbLockEff * agg
	minTime := float64(128*mib) / lockCap
	if float64(deDur) < minTime*0.9 {
		t.Errorf("DE write %v s faster than its lock cap permits (≥ %v s)", deDur, minTime)
	}
}

func TestZeroSizeFlushCompletes(t *testing.T) {
	w, d := testSetup(t)
	env, _ := mpiio.NewEnv("dataelevator", d)
	w.Launch("app", 1, func(r *mpi.Rank) {
		f, _ := env.Open(r, "f", mpi.WriteOnly)
		f.Close() // nothing written
		d.WaitFlush(r.P, "f")
	}, mpi.LaunchOpts{RanksPerNode: 1})
	w.E.Run()
	if w.E.Deadlocked() != 0 {
		t.Error("zero-size close deadlocked the flush wait")
	}
}

// Data Elevator rejects a negative offset, and a range whose end overflows
// int64: no panic, the cached file stays empty and no flush runs.
func TestNegativeOffsetRejected(t *testing.T) {
	w, d := testSetup(t)
	env, _ := mpiio.NewEnv("dataelevator", d)
	w.Launch("app", 1, func(r *mpi.Rank) {
		f, err := env.Open(r, "f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := f.WriteAt(-4*mib, 4*mib, bytes.Repeat([]byte("n"), int(4*mib))); err == nil {
			t.Error("WriteAt at a negative offset accepted")
		}
		if _, err := f.ReadAt(-1*mib, 2*mib); err == nil {
			t.Error("ReadAt at a negative offset accepted")
		}
		if err := f.WriteAt(math.MaxInt64-10, mib, nil); err == nil {
			t.Error("WriteAt whose end overflows accepted")
		}
		if _, err := f.ReadAt(math.MaxInt64-10, mib); err == nil {
			t.Error("ReadAt whose end overflows accepted")
		}
		f.Close()
	}, mpi.LaunchOpts{RanksPerNode: 1})
	w.E.Run()
	if size := d.files["f"].size; size != 0 {
		t.Errorf("cached file size %d, want 0", size)
	}
	if _, _, _, ok := d.FlushStats("f"); ok {
		t.Error("a flush ran for a file nothing was written to")
	}
}
