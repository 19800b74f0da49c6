package core

// Failure-injection tests: capacity exhaustion on every tier, conflicting
// workflow access, degenerate flushes, and teardown ordering.

import (
	"bytes"
	"testing"

	"univistor/internal/meta"
	"univistor/internal/mpi"
	"univistor/internal/sim"
	"univistor/internal/topology"
)

func TestBBExhaustionSpillsToPFS(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		tc.BBCapPerNode = 3 * mib // 6 MiB total BB
		cc.CacheTiers = []meta.Tier{meta.TierBB}
		cc.FlushOnClose = false
	})
	var tiers []meta.Tier
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		for i := int64(0); i < 10; i++ {
			if err := f.WriteAt(i*mib, 1*mib, nil); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		f.Close()
		recs := sys.metaCoveringFree(f.FID(), 0, 10*mib)
		for _, rec := range recs {
			tier, _, _ := sys.files["f"].procFiles[rec.Proc].ls.Space().Decode(rec.VA)
			tiers = append(tiers, tier)
		}
	})
	pfs := 0
	for _, tr := range tiers {
		if tr == meta.TierPFS {
			pfs++
		}
	}
	if pfs == 0 {
		t.Errorf("no segments spilled to PFS despite a 6 MiB BB: %v", tiers)
	}
}

func TestDRAMPoolSharedAcrossFiles(t *testing.T) {
	// Two files opened in sequence: the second file's logs get whatever
	// DRAM the first left, then spill.
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		tc.DRAMPerNode = 8 * mib
		cc.DRAMLogBytes = 6 * mib
		cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
		cc.FlushOnClose = false
	})
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f1, _ := c.Open("f1", mpi.WriteOnly)
		f1.WriteAt(0, 4*mib, nil)
		f1.Close()
		f2, _ := c.Open("f2", mpi.WriteOnly)
		// f2's DRAM log could only reserve 2 MiB: the third write spills.
		for i := int64(0); i < 4; i++ {
			if err := f2.WriteAt(i*mib, 1*mib, nil); err != nil {
				t.Errorf("f2 write %d: %v", i, err)
			}
		}
		f2.Close()
		recs := sys.metaCoveringFree(f2.FID(), 0, 4*mib)
		sawBB := false
		for _, rec := range recs {
			tier, _, _ := sys.files["f2"].procFiles[rec.Proc].ls.Space().Decode(rec.VA)
			if tier == meta.TierBB {
				sawBB = true
			}
		}
		if !sawBB {
			t.Error("second file never spilled to BB despite exhausted DRAM pool")
		}
	})
}

func TestWriterBlockedWhileFlushInProgress(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.Workflow = true
	})
	var flushEnd, reopenAt sim.Time
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		f.WriteAt(0, 8*mib, nil)
		f.Close() // triggers flush; workflow marks FLUSHING
		// Re-opening for write must wait for FLUSH_DONE.
		f2, err := c.Open("f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		reopenAt = c.Rank().Now()
		_, _, flushEnd, _ = sys.FlushStats("f")
		f2.WriteAt(8*mib, 1*mib, nil)
		f2.Close()
	})
	if reopenAt < flushEnd {
		t.Errorf("writer reacquired the file at %v, before the flush finished at %v", reopenAt, flushEnd)
	}
}

func TestServerShutdownAfterAllClientsExit(t *testing.T) {
	w, sys := testEnv(t, nil)
	app := w.Launch("app", 2, func(r *mpi.Rank) {
		c := sys.Connect(r)
		f, _ := c.Open("f", mpi.WriteOnly)
		f.WriteAt(int64(r.Rank())*mib, 1*mib, nil)
		f.Close()
		sys.WaitFlush(r.P, "f")
	}, mpi.LaunchOpts{RanksPerNode: 1})
	w.E.Go("janitor", func(p *sim.Proc) {
		app.Wait(p)
		sys.Shutdown()
	})
	w.E.Run()
	if d := w.E.Deadlocked(); d != 0 {
		t.Fatalf("%d server processes failed to shut down", d)
	}
	if !sys.serverComm.Done() {
		t.Error("server ranks did not exit")
	}
}

func TestFlushOfPFSTierDataIsInstant(t *testing.T) {
	// CacheTiers empty: every write already lands on the PFS spill logs, so
	// the "flush" has nothing to move and completes with no transfers.
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.CacheTiers = nil
	})
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		f.WriteAt(0, 4*mib, nil)
		closeAt := c.Rank().Now()
		f.Close()
		sys.WaitFlush(c.Rank().P, "f")
		_, _, end, ok := sys.FlushStats("f")
		if !ok {
			t.Error("flush never completed")
			return
		}
		if float64(end-closeAt) > 0.01 {
			t.Errorf("PFS-resident flush took %v s, want ≈0 (no data motion)", end-closeAt)
		}
	})
}

func TestReadOfUnwrittenRangeIsCheapAndEmpty(t *testing.T) {
	w, sys := testEnv(t, nil)
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		f.WriteAt(0, 1*mib, nil)
		start := c.Rank().Now()
		data, err := f.ReadAt(10*mib, 1*mib) // hole
		if err != nil {
			t.Errorf("hole read: %v", err)
		}
		if len(data) != 0 {
			t.Errorf("hole read returned %d bytes of data", len(data))
		}
		if d := float64(c.Rank().Now() - start); d > 1e-3 {
			t.Errorf("hole read took %v s", d)
		}
		f.Close()
	})
}

func TestConcurrentAppsIsolatedFiles(t *testing.T) {
	// Two applications writing different files concurrently must not
	// corrupt each other's metadata or placement.
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) { cc.FlushOnClose = false })
	mk := func(name string, nodes []int) *mpi.Comm {
		return w.Launch(name, 2, func(r *mpi.Rank) {
			c := sys.Connect(r)
			f, err := c.Open("file-"+name, mpi.WriteOnly)
			if err != nil {
				t.Errorf("%s open: %v", name, err)
				return
			}
			for i := int64(0); i < 4; i++ {
				off := int64(r.Rank())*4*mib + i*mib
				if err := f.WriteAt(off, 1*mib, nil); err != nil {
					t.Errorf("%s write: %v", name, err)
				}
			}
			f.Close()
		}, mpi.LaunchOpts{RanksPerNode: 1, Nodes: nodes})
	}
	a := mk("alpha", []int{0, 1})
	b := mk("beta", []int{0, 1})
	w.E.Go("janitor", func(p *sim.Proc) {
		a.Wait(p)
		b.Wait(p)
		sys.Shutdown()
	})
	w.E.Run()
	if d := w.E.Deadlocked(); d != 0 {
		t.Fatalf("deadlocked: %d", d)
	}
	for _, name := range []string{"file-alpha", "file-beta"} {
		if size, ok := sys.FileSize(name); !ok || size != 8*mib {
			t.Errorf("%s size = %d, %v", name, size, ok)
		}
	}
	if v := sys.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariants: %v", v)
	}
}

func TestOpenReadOnlyMissingFileFailsCleanly(t *testing.T) {
	w, sys := testEnv(t, nil)
	runApp(t, w, sys, 2, 1, func(c *Client) {
		_, err := c.Open("ghost", mpi.ReadOnly)
		if err == nil {
			t.Error("read-open of missing file succeeded")
		}
		// The failed open must not wedge subsequent collectives.
		f, err := c.Open("real", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open after failure: %v", err)
			return
		}
		f.WriteAt(int64(c.Rank().Rank())*mib, 1*mib, nil)
		f.Close()
	})
}

// A rewrite of the same key from another node moves the segment there: the
// first producer's node must not resolve it locally any more. Rank 0 writes
// [0, 1 MiB), rank 1 on the other node rewrites it, and rank 0 reads it
// back: the bytes are remote, node 1's DRAM. After node 0 fails, the read
// still finds them on node 1 instead of losing them with node 0's copy.
func TestCrossNodeRewriteLeavesNoStaleLocalRecord(t *testing.T) {
	for mode, shards := range map[string]int{"ring": 0, "plane": 2} {
		for _, crash := range []bool{false, true} {
			name := mode
			if crash {
				name += "-crash"
			}
			t.Run(name, func(t *testing.T) {
				w, sys := testEnv(t, func(_ *topology.Config, cc *Config) {
					cc.FlushOnClose = false
					cc.MetaShards = shards
				})
				first, rewrite := bytes.Repeat([]byte("a"), int(mib)), bytes.Repeat([]byte("b"), int(mib))
				var got []byte
				var readErr error
				var before, after Stats
				runApp(t, w, sys, 2, 1, func(c *Client) {
					f, err := c.Open("f", mpi.WriteOnly)
					if err != nil {
						t.Error(err)
						return
					}
					rank := c.Rank().Rank()
					for writer, payload := range [][]byte{first, rewrite} {
						if rank == writer {
							if err := f.WriteAt(0, mib, payload); err != nil {
								t.Error(err)
							}
						}
						c.Rank().Barrier()
					}
					if rank == 0 {
						if crash {
							sys.FailNode(0)
						}
						before = sys.Stats()
						got, readErr = f.ReadAt(0, mib)
						after = sys.Stats()
					}
					c.Rank().Barrier()
					f.Close()
				})
				if readErr != nil {
					t.Fatalf("read after the rewrite: %v", readErr)
				}
				if !bytes.Equal(got, rewrite) {
					t.Fatal("read returned other bytes than the rewrite")
				}
				local, remote := after.BytesReadLocal-before.BytesReadLocal, after.BytesReadRemote-before.BytesReadRemote
				if local != 0 || remote != mib {
					t.Errorf("read counted %d bytes local and %d remote, want 0 and %d", local, remote, mib)
				}
				if !crash {
					if v := sys.CheckInvariants(); len(v) != 0 {
						t.Errorf("invariants: %v", v)
					}
				}
			})
		}
	}
}
