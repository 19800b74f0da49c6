package hdf5lite

import (
	"bytes"
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

// soloRank builds a 1-rank world for collective plumbing.
func soloRank(t *testing.T, fn func(r *mpi.Rank)) {
	t.Helper()
	tc := topology.Cori()
	tc.Nodes = 1
	tc.CoresPerNode = 4
	tc.BBNodes = 1
	tc.OSTs = 2
	e := sim.NewEngine()
	w := mpi.NewWorld(e, topology.New(e, tc), schedule.CFS)
	w.Launch("app", 1, fn, mpi.LaunchOpts{RanksPerNode: 1})
	e.Run()
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
}

func TestCreateWriteReadThroughContainer(t *testing.T) {
	soloRank(t, func(r *mpi.Rank) {
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
	soloRank(t, func(r *mpi.Rank) {
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
	soloRank(t, func(r *mpi.Rank) {
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
		var h *File
		if r.Rank() == 0 {
			h = Create(r, f, true)
		} else {
			h = Create(r, f, true)
		}
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
