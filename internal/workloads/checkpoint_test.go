package workloads

import (
	"testing"

	"univistor/internal/core"
	"univistor/internal/mpi"
	"univistor/internal/mpiio"
	"univistor/internal/schedule"
	"univistor/internal/sim"
	"univistor/internal/topology"
)

// dedupStack is testStack with the content-addressed flush layer enabled:
// 1 MiB blocks so checkpoint segments map 1:1 onto CAS blocks.
func dedupStack(t *testing.T) (*mpi.World, *mpiio.Env, *mpiio.UniviStorDriver) {
	t.Helper()
	tc := topology.Cori()
	tc.Nodes = 2
	tc.CoresPerNode = 8
	tc.DRAMPerNode = 256 * mib
	tc.BBNodes = 2
	tc.BBCapPerNode = 512 * mib
	tc.BBStripeSize = 1 * mib
	tc.OSTs = 8
	e := sim.NewEngine()
	w := mpi.NewWorld(e, topology.New(e, tc), schedule.InterferenceAware)
	cc := core.DefaultConfig()
	cc.ChunkSize = 1 * mib
	cc.MetaRangeSize = 16 * mib
	cc.Dedup = true
	cc.DedupBlockBytes = 1 * mib
	cc.DedupGCBatchBytes = 8 * mib
	sys, err := core.NewSystem(w, cc)
	if err != nil {
		t.Fatal(err)
	}
	drv := mpiio.NewUniviStorDriver(sys)
	env, err := mpiio.NewEnv("univistor", drv)
	if err != nil {
		t.Fatal(err)
	}
	return w, env, drv
}

// TestCheckpointDedup drives the checkpoint kernel at a 10% change rate
// and checks the content-addressed layer moves only the changed fraction:
// the acceptance bound is physical ≤ 50% of logical, and the deterministic
// expectation is far lower (step 0 full + ~10% per later step).
func TestCheckpointDedup(t *testing.T) {
	w, env, drv := dedupStack(t)
	cfg := CheckpointConfig{
		SegmentsPerRank: 8,
		SegmentBytes:    1 * mib,
		TimeSteps:       6,
		ChangeRate:      0.10,
		ComputeSeconds:  5,
		Seed:            42,
	}
	var sts [2]CheckpointStats
	app := w.Launch("ckpt", 2, func(r *mpi.Rank) {
		st, err := RunCheckpoint(r, env, cfg)
		if err != nil {
			t.Errorf("checkpoint: %v", err)
		}
		sts[r.Rank()] = st
	}, mpi.LaunchOpts{})
	runAll(t, w, drv, app)

	s := drv.Sys.Stats()
	logical := s.BytesFlushed
	physical := s.BytesFlushedPhysical
	wantLogical := int64(cfg.TimeSteps) * 2 * cfg.BytesPerRankStep()
	if logical != wantLogical {
		t.Fatalf("logical flushed = %d, want %d", logical, wantLogical)
	}
	if physical <= 0 || physical > logical/2 {
		t.Errorf("physical flushed = %d, want in (0, %d] (dedup at 10%% change)", physical, logical/2)
	}
	if s.DedupBytesSaved != logical-physical {
		t.Errorf("DedupBytesSaved = %d, want %d", s.DedupBytesSaved, logical-physical)
	}
	// The changed-segment ledger predicts the physical bytes exactly:
	// segments are block-aligned, so each mutation is one new block.
	var changed int64
	for _, st := range sts {
		changed += st.SegmentsChanged
	}
	if want := changed * cfg.SegmentBytes; physical != want {
		t.Errorf("physical flushed = %d, want %d (= %d changed segments)", physical, want, changed)
	}
	if viol := drv.Sys.CheckInvariants(); len(viol) > 0 {
		t.Errorf("invariants violated: %v", viol)
	}
}

// TestCheckpointRetentionGC retires old step files and checks the dead
// blocks actually flow through the ref-counted GC: reclaim runs happen,
// every retired byte is collected, and nothing is left pending.
func TestCheckpointRetentionGC(t *testing.T) {
	w, env, drv := dedupStack(t)
	cfg := CheckpointConfig{
		SegmentsPerRank: 4,
		SegmentBytes:    1 * mib,
		TimeSteps:       5,
		ChangeRate:      1.0, // every step fully new: retired blocks die
		ComputeSeconds:  5,
		Seed:            7,
		Retention:       2,
	}
	app := w.Launch("ckpt", 2, func(r *mpi.Rank) {
		st, err := RunCheckpoint(r, env, cfg)
		if err != nil {
			t.Errorf("checkpoint: %v", err)
		}
		if want := cfg.TimeSteps - cfg.Retention; st.FilesRetired != want {
			t.Errorf("rank %d retired %d files, want %d", r.Rank(), st.FilesRetired, want)
		}
	}, mpi.LaunchOpts{})
	runAll(t, w, drv, app)

	s := drv.Sys.Stats()
	if s.CASGCRuns == 0 {
		t.Fatal("retention deletes produced no GC runs")
	}
	// ChangeRate 1 means no block is ever shared across steps, so the GC
	// must reclaim exactly the retired steps' bytes.
	want := int64(cfg.TimeSteps-cfg.Retention) * 2 * cfg.BytesPerRankStep()
	if s.CASGCBytes != want {
		t.Errorf("GC reclaimed %d bytes, want %d", s.CASGCBytes, want)
	}
	cs := drv.Sys.CASStats()
	if cs == nil {
		t.Fatal("CASStats nil with dedup enabled")
	}
	if cs.DeadBytes != 0 {
		t.Errorf("%d dead bytes left pending after run", cs.DeadBytes)
	}
	if viol := drv.Sys.CheckInvariants(); len(viol) > 0 {
		t.Errorf("invariants violated: %v", viol)
	}
}

// TestCheckpointDedupOffStillRuns pins the kernel to the legacy path:
// with dedup disabled the tagged writes degrade to plain writes and the
// physical counters stay zero.
func TestCheckpointDedupOffStillRuns(t *testing.T) {
	w, env, drv := testStack(t)
	cfg := CheckpointConfig{
		SegmentsPerRank: 4,
		SegmentBytes:    1 * mib,
		TimeSteps:       3,
		ChangeRate:      0.25,
		Seed:            1,
	}
	app := w.Launch("ckpt", 2, func(r *mpi.Rank) {
		if _, err := RunCheckpoint(r, env, cfg); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
	}, mpi.LaunchOpts{})
	runAll(t, w, drv, app)

	s := drv.Sys.Stats()
	if s.BytesFlushedPhysical != 0 || s.DedupBytesSaved != 0 || s.CASGCRuns != 0 {
		t.Errorf("dedup counters moved with dedup off: %+v", s)
	}
	if drv.Sys.CASStats() != nil {
		t.Error("CASStats non-nil with dedup disabled")
	}
	if viol := drv.Sys.CheckInvariants(); len(viol) > 0 {
		t.Errorf("invariants violated: %v", viol)
	}
}
