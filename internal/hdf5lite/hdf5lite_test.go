package hdf5lite

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"univistor/internal/core"
	"univistor/internal/mpi"
	"univistor/internal/mpiio"
	"univistor/internal/schedule"
	"univistor/internal/sim"
	"univistor/internal/topology"
)

const mib = int64(1) << 20

// memFile is an in-memory mpiio.File for unit-testing the container format
// without a cluster.
type memFile struct {
	name string
	data map[int64][]byte
	buf  []byte
}

func newMemFile(name string) *memFile { return &memFile{name: name, buf: make([]byte, 0)} }

func (m *memFile) Name() string { return m.name }
func (m *memFile) WriteAt(off, size int64, data []byte) error {
	end := off + size
	if int64(len(m.buf)) < end {
		grown := make([]byte, end)
		copy(grown, m.buf)
		m.buf = grown
	}
	if data != nil {
		copy(m.buf[off:end], data)
	}
	return nil
}
func (m *memFile) ReadAt(off, size int64) ([]byte, error) {
	out := make([]byte, size)
	if off < int64(len(m.buf)) {
		copy(out, m.buf[off:])
	}
	return out, nil
}
func (m *memFile) Close() error { return nil }

// failFile is a memFile whose region I/O fails on demand: every read when
// failReads is set, and every write after the first okWrites.
type failFile struct {
	*memFile
	failReads bool
	okWrites  int
}

var errInjected = errors.New("injected I/O failure")

func (f *failFile) ReadAt(off, size int64) ([]byte, error) {
	if f.failReads {
		return nil, errInjected
	}
	return f.memFile.ReadAt(off, size)
}

func (f *failFile) WriteAt(off, size int64, data []byte) error {
	if f.okWrites == 0 {
		return errInjected
	}
	f.okWrites--
	return f.memFile.WriteAt(off, size, data)
}

// runRanks runs fn on every rank of an n-rank world, one rank per node, and
// returns the finished engine.
func runRanks(tb testing.TB, n int, fn func(r *mpi.Rank)) *sim.Engine {
	tb.Helper()
	tc := topology.Cori()
	tc.Nodes = n
	tc.CoresPerNode = 4
	tc.BBNodes = 1
	tc.OSTs = 2
	e := sim.NewEngine()
	w := mpi.NewWorld(e, topology.New(e, tc), schedule.CFS)
	w.Launch("app", n, fn, mpi.LaunchOpts{RanksPerNode: 1})
	e.Run()
	return e
}

func TestTableEncodeDecodeRoundTrip(t *testing.T) {
	table := []DatasetInfo{
		{Name: "x", ElemSize: 4, Count: 100, Offset: MetaRegionSize},
		{Name: "energy", ElemSize: 8, Count: 50, Offset: MetaRegionSize + 400},
	}
	raw := encodeTable(table, MetaRegionSize+800, nil)
	if len(raw) != MetaRegionSize {
		t.Fatalf("encoded region %d bytes", len(raw))
	}
	// Re-encoding into a dirty reused buffer must yield the exact bytes a
	// fresh zeroed region would — the reuse contract of File.encBuf.
	fresh := append([]byte(nil), raw...)
	dirty := make([]byte, MetaRegionSize)
	for i := range dirty {
		dirty[i] = 0xAA
	}
	again := encodeTable(table, MetaRegionSize+800, dirty)
	if !bytes.Equal(fresh, again) {
		t.Fatal("re-encode into reused buffer differs from fresh encode")
	}
	got, next, err := decodeTable(raw)
	if err != nil {
		t.Fatal(err)
	}
	if next != MetaRegionSize+800 || len(got) != 2 {
		t.Fatalf("decode: next=%d n=%d", next, len(got))
	}
	for i := range table {
		if got[i] != table[i] {
			t.Errorf("dataset %d = %+v, want %+v", i, got[i], table[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := decodeTable(make([]byte, MetaRegionSize)); err == nil {
		t.Error("zero region decoded without error")
	}
	if _, _, err := decodeTable([]byte{1, 2}); err == nil {
		t.Error("short buffer decoded without error")
	}
	// A header that promises more entries than the bytes hold.
	raw := encodeTable([]DatasetInfo{{Name: "x", ElemSize: 4, Count: 1, Offset: MetaRegionSize}}, MetaRegionSize+4, nil)
	for _, cut := range []int{20, 21, 30, 20 + entrySize("x") - 1} {
		if _, _, err := decodeTable(raw[:cut]); err == nil {
			t.Errorf("entry cut at byte %d decoded without error", cut)
		}
	}
}

func TestCreateWriteReadThroughContainer(t *testing.T) {
	runRanks(t, 1, func(r *mpi.Rank) {
		mf := newMemFile("c.h5")
		h := Create(r, mf, true)
		ds, err := h.CreateDataset("temperature", 8, 1000)
		if err != nil {
			t.Errorf("create dataset: %v", err)
			return
		}
		payload := bytes.Repeat([]byte{0xAB}, 80)
		if err := ds.WriteElems(10, 10, payload); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := h.Close(); err != nil {
			t.Errorf("close: %v", err)
		}

		h2, err := Open(r, mf, true)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		ds2, err := h2.OpenDataset("temperature")
		if err != nil {
			t.Errorf("open dataset: %v", err)
			return
		}
		got, err := ds2.ReadElems(10, 10)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Error("element round trip mismatch")
		}
		if ds2.Info().Offset != MetaRegionSize {
			t.Errorf("first dataset at %d, want %d", ds2.Info().Offset, MetaRegionSize)
		}
	})
}

func TestDatasetsPackedContiguously(t *testing.T) {
	runRanks(t, 1, func(r *mpi.Rank) {
		h := Create(r, newMemFile("c.h5"), true)
		a, _ := h.CreateDataset("a", 4, 100)
		b, _ := h.CreateDataset("b", 8, 50)
		if a.Info().Offset != MetaRegionSize {
			t.Errorf("a at %d", a.Info().Offset)
		}
		if want := MetaRegionSize + int64(400); b.Info().Offset != want {
			t.Errorf("b at %d, want %d", b.Info().Offset, want)
		}
	})
}

func TestDatasetValidation(t *testing.T) {
	runRanks(t, 1, func(r *mpi.Rank) {
		h := Create(r, newMemFile("c.h5"), true)
		if _, err := h.CreateDataset("", 4, 1); err == nil {
			t.Error("empty name accepted")
		}
		if _, err := h.CreateDataset("x", 0, 1); err == nil {
			t.Error("zero elem size accepted")
		}
		ds, _ := h.CreateDataset("x", 4, 10)
		if _, err := h.CreateDataset("x", 4, 10); err == nil {
			t.Error("duplicate dataset accepted")
		}
		if err := ds.WriteElems(5, 10, nil); err == nil {
			t.Error("out-of-bounds write accepted")
		}
		if _, err := ds.ReadElems(-1, 2); err == nil {
			t.Error("negative element offset accepted")
		}
		if _, err := h.OpenDataset("missing"); err == nil {
			t.Error("missing dataset opened")
		}
	})
}

// End-to-end: an hdf5lite container over the UniviStor driver, two ranks
// each writing their slab of a shared dataset, then reading it back.
func TestContainerOverUniviStor(t *testing.T) {
	tc := topology.Cori()
	tc.Nodes = 2
	tc.CoresPerNode = 8
	tc.DRAMPerNode = 64 * mib
	tc.BBNodes = 2
	tc.BBCapPerNode = 256 * mib
	tc.BBStripeSize = 1 * mib
	tc.OSTs = 8
	e := sim.NewEngine()
	w := mpi.NewWorld(e, topology.New(e, tc), schedule.InterferenceAware)
	ccfg := core.DefaultConfig()
	ccfg.ChunkSize = 1 * mib
	ccfg.MetaRangeSize = 16 * mib
	sys, err := core.NewSystem(w, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	drv := mpiio.NewUniviStorDriver(sys)
	env, _ := mpiio.NewEnv("univistor", drv)

	const elemsPerRank = 1000
	var got []byte
	want := bytes.Repeat([]byte{7}, elemsPerRank*8)
	app := w.Launch("app", 2, func(r *mpi.Rank) {
		f, err := env.Open(r, "sim.h5", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		h := Create(r, f, true)
		// Collective create: both ranks call identically.
		ds, err := h.CreateDataset("particles", 8, 2*elemsPerRank)
		if err != nil {
			t.Errorf("create dataset: %v", err)
			return
		}
		fill := bytes.Repeat([]byte{byte(7)}, elemsPerRank*8)
		if err := ds.WriteElems(int64(r.Rank())*elemsPerRank, elemsPerRank, fill); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := h.Close(); err != nil {
			t.Errorf("close: %v", err)
		}

		rf, err := env.Open(r, "sim.h5", mpi.ReadOnly)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		h2, err := Open(r, rf, true)
		if err != nil {
			t.Errorf("container open: %v", err)
			return
		}
		ds2, err := h2.OpenDataset("particles")
		if err != nil {
			t.Errorf("dataset open: %v", err)
			return
		}
		if r.Rank() == 0 {
			// Read the OTHER rank's slab (cross-node through the cache).
			data, err := ds2.ReadElems(elemsPerRank, elemsPerRank)
			if err != nil {
				t.Errorf("read: %v", err)
			}
			got = data
		}
		h2.Close()
		drv.Disconnect(r)
	}, mpi.LaunchOpts{RanksPerNode: 1})
	e.Go("janitor", func(p *sim.Proc) {
		app.Wait(p)
		sys.Shutdown()
	})
	e.Run()
	if e.Deadlocked() != 0 {
		t.Fatalf("deadlocked: %d", e.Deadlocked())
	}
	if !bytes.Equal(got, want) {
		t.Error("cross-rank dataset read mismatch")
	}
}

// sharesArray reports whether two tables are the same slice of one backing
// array.
func sharesArray(a, b []DatasetInfo) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// In collective mode every rank's dataset table is the root's: after a
// create-and-close and after a reopen, each rank holds the root's slice and
// sees the root's entries. Without the collective optimization every rank
// keeps a table of its own with the same entries.
func TestCollectiveRanksShareRootTable(t *testing.T) {
	const ranks, datasets = 4, 8
	for _, collective := range []bool{true, false} {
		t.Run(fmt.Sprintf("collective=%v", collective), func(t *testing.T) {
			mf := newMemFile("c.h5")
			var created, opened [ranks]*File
			var infos [ranks][]DatasetInfo
			e := runRanks(t, ranks, func(r *mpi.Rank) {
				h := Create(r, mf, collective)
				for i := range datasets {
					ds, err := h.CreateDataset(fmt.Sprintf("d%d", i), 8, int64(100*(i+1)))
					if err != nil {
						t.Errorf("rank %d create: %v", r.Rank(), err)
						return
					}
					infos[r.Rank()] = append(infos[r.Rank()], ds.Info())
				}
				if err := h.Close(); err != nil {
					t.Errorf("rank %d close: %v", r.Rank(), err)
				}
				created[r.Rank()] = h
				r.Barrier()
				h2, err := Open(r, mf, collective)
				if err != nil {
					t.Errorf("rank %d open: %v", r.Rank(), err)
					return
				}
				opened[r.Rank()] = h2
			})
			if e.Deadlocked() != 0 {
				t.Fatalf("%d ranks deadlocked", e.Deadlocked())
			}
			for _, phase := range []struct {
				name  string
				files [ranks]*File
			}{{"create", created}, {"open", opened}} {
				root := phase.files[0]
				if len(root.table) != datasets {
					t.Fatalf("%s: root table has %d datasets, want %d", phase.name, len(root.table), datasets)
				}
				for rank, h := range phase.files[1:] {
					if shared := sharesArray(h.table, root.table); shared != collective {
						t.Errorf("%s: rank %d shares the root's table = %v, want %v", phase.name, rank+1, shared, collective)
					}
					if !slices.Equal(h.table, root.table) {
						t.Errorf("%s: rank %d table %v, want the root's %v", phase.name, rank+1, h.table, root.table)
					}
					if h.nextOff != root.nextOff {
						t.Errorf("%s: rank %d nextOff %d, want %d", phase.name, rank+1, h.nextOff, root.nextOff)
					}
				}
			}
			for rank := 1; rank < ranks; rank++ {
				if !slices.Equal(infos[rank], infos[0]) {
					t.Errorf("rank %d dataset infos %v, want the root's %v", rank, infos[rank], infos[0])
				}
			}
			if !slices.Equal(infos[0], opened[0].table) {
				t.Errorf("created infos %v, reopened table %v", infos[0], opened[0].table)
			}
		})
	}
}

// A table that outgrows the metadata region fails the same create on every
// rank, with or without the collective optimization, and leaves no rank
// waiting.
func TestTableOverflowFailsEveryRank(t *testing.T) {
	const ranks = 4
	for _, collective := range []bool{true, false} {
		var failedAt [ranks]int
		e := runRanks(t, ranks, func(r *mpi.Rank) {
			h := Create(r, newMemFile("c.h5"), collective)
			for i := 0; ; i++ {
				if _, err := h.CreateDataset(fmt.Sprintf("%0255d", i), 1, 1); err != nil {
					failedAt[r.Rank()] = i
					return
				}
			}
		})
		if e.Deadlocked() != 0 {
			t.Fatalf("collective=%v: %d ranks deadlocked", collective, e.Deadlocked())
		}
		// 20 header bytes, then 1+255+24 bytes per dataset.
		want := (MetaRegionSize - 20) / (1 + 255 + 24)
		for rank, at := range failedAt {
			if at != want {
				t.Errorf("collective=%v: rank %d failed at dataset %d, want %d", collective, rank, at, want)
			}
		}
	}
}

// A failed metadata-region read or write on the root fails the call on
// every rank of a collective file: the root broadcasts its error instead
// of returning before the broadcast the other ranks wait in.
func TestCollectiveRootFailureFailsEveryRank(t *testing.T) {
	for _, tc := range []struct {
		name string
		file func() *failFile
		run  func(r *mpi.Rank, f mpiio.File) error
	}{
		{"open", func() *failFile { return &failFile{memFile: newMemFile("c.h5"), failReads: true} },
			func(r *mpi.Rank, f mpiio.File) error {
				_, err := Open(r, f, true)
				return err
			}},
		{"create", func() *failFile { return &failFile{memFile: newMemFile("c.h5")} },
			func(r *mpi.Rank, f mpiio.File) error {
				_, err := Create(r, f, true).CreateDataset("x", 8, 10)
				return err
			}},
		{"close", func() *failFile { return &failFile{memFile: newMemFile("c.h5"), okWrites: 1} },
			func(r *mpi.Rank, f mpiio.File) error {
				h := Create(r, f, true)
				if _, err := h.CreateDataset("x", 8, 10); err != nil {
					return fmt.Errorf("create before close: %v", err) // not errInjected
				}
				return h.Close()
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.file()
			var errs [2]error
			e := runRanks(t, 2, func(r *mpi.Rank) { errs[r.Rank()] = tc.run(r, f) })
			if e.Deadlocked() != 0 {
				t.Errorf("%d ranks deadlocked", e.Deadlocked())
			}
			for rank, err := range errs {
				if !errors.Is(err, errInjected) {
					t.Errorf("rank %d returned %v, want the root's I/O error", rank, err)
				}
			}
		})
	}
}

// BenchmarkCollectiveStep times one collective step file's container
// lifecycle on 64 ranks: create 8 datasets, close, then open the file.
func BenchmarkCollectiveStep(b *testing.B) {
	const ranks, datasets = 64, 8
	mf := newMemFile("step.h5")
	names := make([]string, datasets)
	for i := range names {
		names[i] = fmt.Sprintf("d%d", i)
	}
	b.ReportAllocs()
	runRanks(b, ranks, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			b.ResetTimer()
		}
		for range b.N {
			h := Create(r, mf, true)
			for _, name := range names {
				if _, err := h.CreateDataset(name, 8, 1000); err != nil {
					b.Error(err)
					return
				}
			}
			if err := h.Close(); err != nil {
				b.Error(err)
			}
			h2, err := Open(r, mf, true)
			if err != nil {
				b.Error(err)
				return
			}
			h2.Close()
		}
	})
}
