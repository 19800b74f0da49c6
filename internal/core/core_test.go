package core

import (
	"bytes"
	"math"
	"testing"

	"univistor/internal/meta"
	"univistor/internal/mpi"
	"univistor/internal/schedule"
	"univistor/internal/sim"
	"univistor/internal/topology"
)

const (
	kib = int64(1) << 10
	mib = int64(1) << 20
)

// testEnv builds a 2-node toy cluster with a running UniviStor system.
func testEnv(t *testing.T, mutate func(*topology.Config, *Config)) (*mpi.World, *System) {
	t.Helper()
	tc := topology.Cori()
	tc.Nodes = 2
	tc.CoresPerNode = 8
	tc.SocketsPerNode = 2
	tc.DRAMPerNode = 64 * mib
	tc.BBNodes = 2
	tc.BBCapPerNode = 256 * mib
	tc.BBStripeSize = 1 * mib
	tc.OSTs = 8
	tc.OSTCapacity = 1 << 40
	cc := DefaultConfig()
	cc.ChunkSize = 1 * mib
	cc.MetaRangeSize = 16 * mib
	if mutate != nil {
		mutate(&tc, &cc)
	}
	e := sim.NewEngine()
	policy := schedule.InterferenceAware
	if !cc.InterferenceAware {
		policy = schedule.CFS
	}
	w := mpi.NewWorld(e, topology.New(e, tc), policy)
	sys, err := NewSystem(w, cc)
	if err != nil {
		t.Fatal(err)
	}
	return w, sys
}

// runApp launches an app, waits for it, and shuts the system down.
func runApp(t *testing.T, w *mpi.World, sys *System, n, perNode int, main func(*Client)) {
	t.Helper()
	app := w.Launch("app", n, func(r *mpi.Rank) {
		c := sys.Connect(r)
		main(c)
	}, mpi.LaunchOpts{RanksPerNode: perNode})
	w.E.Go("janitor", func(p *sim.Proc) {
		app.Wait(p)
		sys.Shutdown()
	})
	w.E.Run()
	if d := w.E.Deadlocked(); d != 0 {
		t.Fatalf("%d processes deadlocked", d)
	}
	if !app.Done() {
		t.Fatal("application did not finish")
	}
}

func TestWriteReadRoundTripSingleRank(t *testing.T) {
	w, sys := testEnv(t, nil)
	payload := bytes.Repeat([]byte("u"), int(2*mib))
	var got []byte
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, err := c.Open("f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := f.WriteAt(0, 2*mib, payload); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		rf, err := c.Open("f", mpi.ReadOnly)
		if err != nil {
			t.Errorf("open read: %v", err)
			return
		}
		got, err = rf.ReadAt(0, 2*mib)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		rf.Close()
	})
	if !bytes.Equal(got, payload) {
		t.Error("read-back mismatch")
	}
}

func TestCrossRankRead(t *testing.T) {
	w, sys := testEnv(t, nil)
	// Rank 0 (node 0) writes; rank 1 (node 1) reads it back: forces a
	// remote segment fetch.
	payload := bytes.Repeat([]byte("x"), int(1*mib))
	var got []byte
	runApp(t, w, sys, 2, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		if c.Rank().Rank() == 0 {
			if err := f.WriteAt(0, 1*mib, payload); err != nil {
				t.Errorf("write: %v", err)
			}
		}
		c.Rank().Barrier()
		if c.Rank().Rank() == 1 {
			data, err := f.ReadAt(0, 1*mib)
			if err != nil {
				t.Errorf("read: %v", err)
			}
			got = data
		}
		c.Rank().Barrier()
		f.Close()
	})
	if !bytes.Equal(got, payload) {
		t.Error("cross-rank read mismatch")
	}
}

func TestSpillAcrossTiers(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.DRAMLogBytes = 4 * mib
		cc.BBLogBytes = 4 * mib
		cc.FlushOnClose = false
	})
	var tiers []meta.Tier
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		for i := int64(0); i < 12; i++ {
			if err := f.WriteAt(i*mib, 1*mib, nil); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		f.Close()
		// Inspect the tier of each segment via the metadata ring.
		recs := sys.metaCoveringFree(f.FID(), 0, 12*mib)
		for _, rec := range recs {
			tier, _, err := sys.files["f"].procFiles[rec.Proc].ls.Space().Decode(rec.VA)
			if err != nil {
				t.Error(err)
			}
			tiers = append(tiers, tier)
		}
	})
	if len(tiers) != 12 {
		t.Fatalf("found %d segments, want 12", len(tiers))
	}
	counts := map[meta.Tier]int{}
	for _, tr := range tiers {
		counts[tr]++
	}
	if counts[meta.TierDRAM] != 4 || counts[meta.TierBB] != 4 || counts[meta.TierPFS] != 4 {
		t.Errorf("tier distribution = %v, want 4 DRAM / 4 BB / 4 PFS", counts)
	}
}

func TestReadBackAfterSpill(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.DRAMLogBytes = 2 * mib
		cc.BBLogBytes = 2 * mib
		cc.FlushOnClose = false
	})
	payload := make([]byte, 6*mib)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	var got []byte
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		for i := int64(0); i < 6; i++ {
			if err := f.WriteAt(i*mib, 1*mib, payload[i*mib:(i+1)*mib]); err != nil {
				t.Errorf("write: %v", err)
			}
		}
		var err error
		got, err = f.ReadAt(0, 6*mib)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		f.Close()
	})
	if !bytes.Equal(got, payload) {
		t.Error("read across spilled tiers mismatch")
	}
}

func TestFlushOnCloseCompletes(t *testing.T) {
	w, sys := testEnv(t, nil)
	var flushedBytes int64
	var cachedAfter int64
	runApp(t, w, sys, 2, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		off := int64(c.Rank().Rank()) * 4 * mib
		if err := f.WriteAt(off, 4*mib, nil); err != nil {
			t.Errorf("write: %v", err)
		}
		f.Close()
		sys.WaitFlush(c.Rank().P, "f")
		if c.Rank().Rank() == 0 {
			b, start, end, ok := sys.FlushStats("f")
			if !ok {
				t.Error("no flush stats")
			}
			if end <= start {
				t.Errorf("flush interval [%v, %v] empty", start, end)
			}
			flushedBytes = b
			cachedAfter = sys.CachedBytes("f")
		}
	})
	if flushedBytes != 8*mib {
		t.Errorf("flushed %d bytes, want %d", flushedBytes, 8*mib)
	}
	if cachedAfter != 0 {
		t.Errorf("cached bytes after flush = %d", cachedAfter)
	}
}

func TestFlushDisabledLeavesDataCached(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) { cc.FlushOnClose = false })
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		f.WriteAt(0, 1*mib, nil)
		f.Close()
		if _, _, _, ok := sys.FlushStats("f"); ok {
			t.Error("flush ran despite FlushOnClose=false")
		}
		if sys.CachedBytes("f") != 1*mib {
			t.Errorf("cached = %d, want %d", sys.CachedBytes("f"), 1*mib)
		}
	})
}

func TestReadAfterFlushStillServedFromCache(t *testing.T) {
	w, sys := testEnv(t, nil)
	payload := bytes.Repeat([]byte("z"), int(1*mib))
	var got []byte
	var readDuration sim.Time
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		f.WriteAt(0, 1*mib, payload)
		f.Close()
		sys.WaitFlush(c.Rank().P, "f")
		rf, _ := c.Open("f", mpi.ReadOnly)
		start := c.Rank().Now()
		var err error
		got, err = rf.ReadAt(0, 1*mib)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		readDuration = c.Rank().Now() - start
		rf.Close()
	})
	if !bytes.Equal(got, payload) {
		t.Error("post-flush read mismatch")
	}
	// Cached in DRAM: the read should move at memory speed (≫ PFS speed).
	// 1 MiB at ≈7 GB/s is ≈150 µs; via Lustre it would be ≥ 1 ms RPC+disk.
	if float64(readDuration) > 1e-3 {
		t.Errorf("post-flush read took %v s — looks like it went to the PFS, not the cache", readDuration)
	}
}

func TestCOCReducesOpenCost(t *testing.T) {
	openTime := func(coc bool) sim.Time {
		w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
			cc.CollectiveOpenClose = coc
			cc.MetaOpTime = 1e-4 // exaggerate serialization for the test
		})
		var dur sim.Time
		runApp(t, w, sys, 8, 4, func(c *Client) {
			start := c.Rank().Now()
			f, err := c.Open("f", mpi.WriteOnly)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			if d := c.Rank().Now() - start; d > dur {
				dur = d
			}
			f.WriteAt(int64(c.Rank().Rank())*mib, 1*mib, nil)
			f.Close()
		})
		return dur
	}
	with := openTime(true)
	without := openTime(false)
	if with >= without {
		t.Errorf("COC open %v not faster than all-to-one open %v", with, without)
	}
}

func TestLocationAwareReadFaster(t *testing.T) {
	readTime := func(la bool) sim.Time {
		w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
			cc.LocationAwareRead = la
			cc.FlushOnClose = false
		})
		var dur sim.Time
		runApp(t, w, sys, 4, 2, func(c *Client) {
			f, _ := c.Open("f", mpi.WriteOnly)
			off := int64(c.Rank().Rank()) * 4 * mib
			f.WriteAt(off, 4*mib, nil)
			c.Rank().Barrier()
			start := c.Rank().Now()
			if _, err := f.ReadAt(off, 4*mib); err != nil {
				t.Errorf("read: %v", err)
			}
			if d := c.Rank().Now() - start; d > dur {
				dur = d
			}
			c.Rank().Barrier()
			f.Close()
		})
		return dur
	}
	with := readTime(true)
	without := readTime(false)
	if with >= without {
		t.Errorf("location-aware read %v not faster than server-relayed %v", with, without)
	}
}

func TestCentralMetadataSlowerAtScale(t *testing.T) {
	writeTime := func(central bool) sim.Time {
		w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
			cc.CentralMetadata = central
			cc.MetaOpTime = 5e-4 // make the metadata path visible
			cc.FlushOnClose = false
		})
		var dur sim.Time
		runApp(t, w, sys, 8, 4, func(c *Client) {
			f, _ := c.Open("f", mpi.WriteOnly)
			start := c.Rank().Now()
			for i := int64(0); i < 4; i++ {
				off := int64(c.Rank().Rank())*4*mib + i*mib
				f.WriteAt(off, 1*mib, nil)
			}
			if d := c.Rank().Now() - start; d > dur {
				dur = d
			}
			f.Close()
		})
		return dur
	}
	distributed := writeTime(false)
	central := writeTime(true)
	if distributed >= central {
		t.Errorf("distributed metadata %v not faster than central %v", distributed, central)
	}
}

func TestWorkflowBlocksReaderUntilWriterCloses(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.Workflow = true
		cc.FlushOnClose = false
	})
	var writerClosed, readerOpened sim.Time
	writer := w.Launch("writer", 1, func(r *mpi.Rank) {
		c := sys.Connect(r)
		f, _ := c.Open("f", mpi.WriteOnly)
		f.WriteAt(0, 4*mib, nil)
		r.Compute(0.5)
		f.Close()
		writerClosed = r.Now()
	}, mpi.LaunchOpts{RanksPerNode: 1})
	reader := w.Launch("reader", 1, func(r *mpi.Rank) {
		c := sys.Connect(r)
		f, err := c.Open("f", mpi.ReadOnly)
		if err != nil {
			t.Errorf("reader open: %v", err)
			return
		}
		readerOpened = r.Now()
		if _, err := f.ReadAt(0, 4*mib); err != nil {
			t.Errorf("reader read: %v", err)
		}
		f.Close()
	}, mpi.LaunchOpts{RanksPerNode: 1, Nodes: []int{1}})
	w.E.Go("janitor", func(p *sim.Proc) {
		writer.Wait(p)
		reader.Wait(p)
		sys.Shutdown()
	})
	w.E.Run()
	if w.E.Deadlocked() != 0 {
		t.Fatalf("deadlock: %d procs", w.E.Deadlocked())
	}
	if readerOpened < writerClosed {
		t.Errorf("reader opened at %v before writer closed at %v", readerOpened, writerClosed)
	}
}

func TestWriteValidation(t *testing.T) {
	w, sys := testEnv(t, nil)
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		if err := f.WriteAt(0, 0, nil); err == nil {
			t.Error("zero-size write accepted")
		}
		if err := f.WriteAt(0, 4, []byte("toolong")); err == nil {
			t.Error("mismatched payload accepted")
		}
		if err := f.WriteAt(0, 64*mib, nil); err == nil {
			t.Error("segment larger than MetaRangeSize accepted")
		}
		rf, err := c.Open("nonexistent", mpi.ReadOnly)
		if err == nil {
			t.Error("read-open of missing file succeeded")
			rf.Close()
		}
		f.WriteAt(0, 1*mib, nil)
		f.Close()
		if err := f.WriteAt(0, 1*mib, nil); err == nil {
			t.Error("write to closed file accepted")
		}
		if err := f.Close(); err == nil {
			t.Error("double close accepted")
		}
	})
}

// A negative offset, or a range whose end overflows int64, is an error on
// every client path, in ring and plane metadata modes alike: no panic, no
// record stored or removed, the stored segments intact, invariants clean.
func TestNegativeOffsetRejected(t *testing.T) {
	for mode, shards := range map[string]int{"ring": 0, "plane": 2} {
		t.Run(mode, func(t *testing.T) {
			w, sys := testEnv(t, func(_ *topology.Config, cc *Config) { cc.MetaShards = shards })
			records := func() int {
				if sys.plane != nil {
					return sys.plane.Total()
				}
				return sys.meta.(*ringMeta).store.Len()
			}
			payload := bytes.Repeat([]byte("s"), int(4*mib))
			runApp(t, w, sys, 1, 1, func(c *Client) {
				f, err := c.Open("f", mpi.WriteOnly)
				if err != nil {
					t.Fatal(err)
				}
				for off := int64(0); off < 4*mib; off += mib {
					if err := f.WriteAt(off, mib, payload[off:off+mib]); err != nil {
						t.Fatal(err)
					}
				}
				stored := records()
				if err := f.WriteAt(-4*mib, 4*mib, nil); err == nil {
					t.Error("WriteAt at a negative offset accepted")
				}
				if err := f.WriteAtTagged(-4*mib, 4*mib, nil, 7); err == nil {
					t.Error("WriteAtTagged at a negative offset accepted")
				}
				if _, err := f.ReadAt(-1*mib, 2*mib); err == nil {
					t.Error("ReadAt at a negative offset accepted")
				}
				if _, err := f.Delete(-1*mib, 2*mib); err == nil {
					t.Error("Delete at a negative offset accepted")
				}
				if err := f.WriteAt(math.MaxInt64-10, mib, nil); err == nil {
					t.Error("WriteAt whose end overflows accepted")
				}
				if err := f.WriteAtTagged(math.MaxInt64-10, mib, nil, 7); err == nil {
					t.Error("WriteAtTagged whose end overflows accepted")
				}
				if _, err := f.ReadAt(mib, math.MaxInt64); err == nil {
					t.Error("ReadAt whose end overflows accepted")
				}
				if _, err := f.Delete(mib, math.MaxInt64); err == nil {
					t.Error("Delete whose end overflows accepted")
				}
				if n := records(); n != stored {
					t.Errorf("%d records stored after the rejected calls, want %d", n, stored)
				}
				if got, err := f.ReadAt(0, 4*mib); err != nil || !bytes.Equal(got, payload) {
					t.Errorf("segments changed by the rejected calls (err %v)", err)
				}
				f.Close()
			})
			if v := sys.CheckInvariants(); len(v) != 0 {
				t.Errorf("invariants: %v", v)
			}
		})
	}
}

func TestServerCountAndPlacement(t *testing.T) {
	w, sys := testEnv(t, nil)
	if sys.Servers() != 4 { // 2 nodes × 2 servers
		t.Errorf("servers = %d, want 4", sys.Servers())
	}
	runApp(t, w, sys, 4, 2, func(c *Client) {
		if c.server.Node != c.Rank().Node() {
			t.Errorf("rank %d: co-located server on node %d, rank on %d",
				c.Rank().Rank(), c.server.Node, c.Rank().Node())
		}
	})
}

func TestDRAMCapacityReservedAndHeld(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.DRAMLogBytes = 8 * mib
	})
	runApp(t, w, sys, 2, 2, func(c *Client) {
		f, _ := c.Open("f", mpi.WriteOnly)
		f.WriteAt(int64(c.Rank().Rank())*mib, 1*mib, nil)
		f.Close()
		sys.WaitFlush(c.Rank().P, "f")
	})
	// Two clients on node 0, 8 MiB logs each: reservations persist after
	// the flush (the cache stays warm).
	if used := w.Cluster.Nodes[0].DRAM.Used(); used != 16*mib {
		t.Errorf("node 0 DRAM used = %d, want %d", used, 16*mib)
	}
}
