package mpiio

import (
	"bytes"
	"math"
	"testing"

	"univistor/internal/core"
	"univistor/internal/lustre"
	"univistor/internal/mpi"
	"univistor/internal/schedule"
	"univistor/internal/sim"
	"univistor/internal/topology"
)

const mib = int64(1) << 20

func testWorld(t *testing.T) *mpi.World {
	t.Helper()
	tc := topology.Cori()
	tc.Nodes = 2
	tc.CoresPerNode = 8
	tc.DRAMPerNode = 64 * mib
	tc.BBNodes = 2
	tc.BBCapPerNode = 256 * mib
	tc.BBStripeSize = 1 * mib
	tc.OSTs = 8
	e := sim.NewEngine()
	return mpi.NewWorld(e, topology.New(e, tc), schedule.InterferenceAware)
}

func univistorEnv(t *testing.T, w *mpi.World) (*Env, *UniviStorDriver) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.ChunkSize = 1 * mib
	cfg.MetaRangeSize = 16 * mib
	sys, err := core.NewSystem(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drv := NewUniviStorDriver(sys)
	env, err := NewEnv("univistor", drv)
	if err != nil {
		t.Fatal(err)
	}
	return env, drv
}

func TestEnvValidation(t *testing.T) {
	w := testWorld(t)
	fs := lustre.NewFS(w.Cluster)
	d := NewLustreDriver(fs)
	if _, err := NewEnv("missing", d); err == nil {
		t.Error("NewEnv accepted a driver not named by fstype")
	}
	if _, err := NewEnv("lustre", d); err != nil {
		t.Fatal(err)
	}
}

func TestUniviStorDriverRoundTrip(t *testing.T) {
	w := testWorld(t)
	env, drv := univistorEnv(t, w)
	payload := bytes.Repeat([]byte("m"), int(1*mib))
	var got []byte
	app := w.Launch("app", 2, func(r *mpi.Rank) {
		f, err := env.Open(r, "data.h5", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		off := int64(r.Rank()) * mib
		if err := f.WriteAt(off, mib, payload); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		rf, err := env.Open(r, "data.h5", mpi.ReadOnly)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		if r.Rank() == 1 {
			data, err := rf.ReadAt(0, mib) // rank 0's segment
			if err != nil {
				t.Errorf("read: %v", err)
			}
			got = data
		}
		rf.Close()
		drv.Disconnect(r)
	}, mpi.LaunchOpts{RanksPerNode: 1})
	w.E.Go("janitor", func(p *sim.Proc) {
		app.Wait(p)
		drv.Sys.Shutdown()
	})
	w.E.Run()
	if w.E.Deadlocked() != 0 {
		t.Fatalf("deadlocked procs: %d", w.E.Deadlocked())
	}
	if !bytes.Equal(got, payload) {
		t.Error("round trip mismatch")
	}
}

// A failed UniviStor open returns an untyped nil File: a nil
// *core.ClientFile inside the interface would compare non-nil.
func TestUniviStorOpenErrorReturnsNilFile(t *testing.T) {
	w := testWorld(t)
	env, drv := univistorEnv(t, w)
	app := w.Launch("app", 1, func(r *mpi.Rank) {
		f, err := env.Open(r, "absent", mpi.ReadOnly)
		if err == nil || f != nil {
			t.Errorf("open of a missing file = (%v, %v), want (nil, error)", f, err)
		}
		drv.Disconnect(r)
	}, mpi.LaunchOpts{RanksPerNode: 1})
	w.E.Go("janitor", func(p *sim.Proc) {
		app.Wait(p)
		drv.Sys.Shutdown()
	})
	w.E.Run()
}

// TestClientIDsNeverReused: a client id names a segment's producer in
// its metadata record, so a disconnect must not free the id for the next
// client. Client a connects, then b, then a disconnects and c connects;
// b and c each write one segment of a shared file. The two records must
// name two producers, and every invariant must hold.
func TestClientIDsNeverReused(t *testing.T) {
	w := testWorld(t)
	env, drv := univistorEnv(t, w)
	// Each client is the one rank of its own app, connected by its first
	// open at virtual time at.
	client := func(name string, at float64, main func(r *mpi.Rank)) *mpi.Comm {
		return w.Launch(name, 1, func(r *mpi.Rank) {
			r.P.Sleep(at)
			main(r)
		}, mpi.LaunchOpts{RanksPerNode: 1})
	}
	write := func(r *mpi.Rank, name string, off int64) {
		f, err := env.Open(r, name, mpi.WriteOnly)
		if err != nil {
			t.Errorf("open %s: %v", name, err)
			return
		}
		if err := f.WriteAt(off, mib, nil); err != nil {
			t.Errorf("write %s: %v", name, err)
		}
		f.Close()
	}
	apps := []*mpi.Comm{
		client("a", 0, func(r *mpi.Rank) {
			write(r, "own", 0)
			r.P.Sleep(2)
			drv.Disconnect(r)
		}),
		client("b", 1, func(r *mpi.Rank) { write(r, "shared", 0) }),
		client("c", 3, func(r *mpi.Rank) { write(r, "shared", mib) }),
	}
	w.E.Go("janitor", func(p *sim.Proc) {
		for _, app := range apps {
			app.Wait(p)
		}
		recs := drv.Sys.Segments("shared")
		if len(recs) != 2 || recs[0].Proc == recs[1].Proc {
			t.Errorf("shared file records %+v, want two segments from two producers", recs)
		}
		if v := drv.Sys.CheckInvariants(); len(v) != 0 {
			t.Errorf("invariants violated: %v", v)
		}
		drv.Sys.Shutdown()
	})
	w.E.Run()
	if w.E.Deadlocked() != 0 {
		t.Fatalf("deadlocked procs: %d", w.E.Deadlocked())
	}
}

func TestLustreDriverRoundTripAndModes(t *testing.T) {
	w := testWorld(t)
	d := NewLustreDriver(lustre.NewFS(w.Cluster))
	env, _ := NewEnv("lustre", d)
	payload := bytes.Repeat([]byte("L"), int(1*mib))
	var got []byte
	w.Launch("app", 2, func(r *mpi.Rank) {
		if _, err := env.Open(r, "absent", mpi.ReadOnly); err == nil {
			t.Error("read-open of missing file succeeded")
		}
		r.Barrier()
		f, err := env.Open(r, "shared", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		off := int64(r.Rank()) * mib
		if err := f.WriteAt(off, mib, payload); err != nil {
			t.Errorf("write: %v", err)
		}
		if _, err := f.ReadAt(off, mib); err != nil {
			t.Errorf("read on write handle should work through lustre: %v", err)
		}
		f.Close()
		rf, _ := env.Open(r, "shared", mpi.ReadOnly)
		if err := rf.WriteAt(0, 1, []byte{0}); err == nil {
			t.Error("write on read-only handle succeeded")
		}
		if r.Rank() == 0 {
			got, _ = rf.ReadAt(mib, mib)
		}
		rf.Close()
	}, mpi.LaunchOpts{RanksPerNode: 1})
	w.E.Run()
	if !bytes.Equal(got, payload) {
		t.Error("lustre round trip mismatch")
	}
}

func TestLustreSharedSlowerThanUniviStorDRAM(t *testing.T) {
	// The headline comparison in miniature: the same 8 MiB/rank write via
	// the UniviStor driver (DRAM logs) and via plain Lustre.
	elapsed := func(build func(w *mpi.World) (*Env, func())) sim.Time {
		w := testWorld(t)
		env, cleanup := build(w)
		var dur sim.Time
		app := w.Launch("app", 4, func(r *mpi.Rank) {
			f, err := env.Open(r, "f", mpi.WriteOnly)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			start := r.Now()
			off := int64(r.Rank()) * 8 * mib
			for i := int64(0); i < 8; i++ {
				if err := f.WriteAt(off+i*mib, mib, nil); err != nil {
					t.Errorf("write: %v", err)
				}
			}
			if d := r.Now() - start; d > dur {
				dur = d
			}
			f.Close()
		}, mpi.LaunchOpts{RanksPerNode: 2})
		w.E.Go("janitor", func(p *sim.Proc) {
			app.Wait(p)
			if cleanup != nil {
				cleanup()
			}
		})
		w.E.Run()
		return dur
	}
	uv := elapsed(func(w *mpi.World) (*Env, func()) {
		env, drv := univistorEnv(t, w)
		return env, drv.Sys.Shutdown
	})
	lus := elapsed(func(w *mpi.World) (*Env, func()) {
		d := NewLustreDriver(lustre.NewFS(w.Cluster))
		env, _ := NewEnv("lustre", d)
		return env, nil
	})
	if uv >= lus {
		t.Errorf("UniviStor/DRAM write %v not faster than Lustre %v", uv, lus)
	}
}

// The Lustre driver takes its contention model from the cluster config:
// halving SharedWriterBW slows a contended shared-file write.
func TestLustreWriterBWFromClusterConfig(t *testing.T) {
	elapsed := func(writerBW float64) sim.Time {
		tc := topology.Cori()
		tc.Nodes = 2
		tc.CoresPerNode = 8
		tc.OSTs = 8
		tc.SharedWriterBW = writerBW
		e := sim.NewEngine()
		w := mpi.NewWorld(e, topology.New(e, tc), schedule.CFS)
		env, _ := NewEnv("lustre", NewLustreDriver(lustre.NewFS(w.Cluster)))
		var dur sim.Time
		w.Launch("app", 4, func(r *mpi.Rank) {
			f, err := env.Open(r, "shared", mpi.WriteOnly)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			start := r.Now()
			if err := f.WriteAt(int64(r.Rank())*8*mib, 8*mib, nil); err != nil {
				t.Errorf("write: %v", err)
			}
			if d := r.Now() - start; d > dur {
				dur = d
			}
			f.Close()
		}, mpi.LaunchOpts{RanksPerNode: 2})
		e.Run()
		return dur
	}
	base := topology.Cori().SharedWriterBW
	full, half := elapsed(base), elapsed(base/2)
	if half <= full {
		t.Errorf("write took %v at SharedWriterBW/2, %v at the default: want longer", half, full)
	}
}

// The Lustre driver rejects a negative offset, and a range whose end
// overflows int64: no panic, and nothing reaches the OSTs.
func TestLustreNegativeOffsetRejected(t *testing.T) {
	w := testWorld(t)
	env, _ := NewEnv("lustre", NewLustreDriver(lustre.NewFS(w.Cluster)))
	w.Launch("app", 1, func(r *mpi.Rank) {
		f, err := env.Open(r, "shared", mpi.WriteOnly)
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
	for _, ost := range w.Cluster.OSTs {
		if used := ost.Cap.Used(); used != 0 {
			t.Errorf("OST %d holds %d bytes, want 0", ost.ID, used)
		}
	}
}
