package chaos

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"univistor/internal/core"
	"univistor/internal/mpi"
	"univistor/internal/schedule"
	"univistor/internal/sim"
	"univistor/internal/topology"
)

const mib = int64(1) << 20

// crashOutcome is one rank's read-back result under an injected crash.
type crashOutcome struct {
	Rank int
	Got  string // "ok", "lost", or an unexpected error string
}

// runCrashScenario writes one 4 MiB block per rank (two ranks, one per
// node), arms the given chaos spec, computes past the injection window, and
// has each rank read the OTHER rank's block — the read must return the
// exact written bytes or ErrDataLost, never anything else.
func runCrashScenario(t *testing.T, specStr string, flush bool) (Report, []crashOutcome, core.Stats) {
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
	cc := core.DefaultConfig()
	cc.ChunkSize = 1 * mib
	cc.MetaRangeSize = 16 * mib
	cc.FlushOnClose = flush

	e := sim.NewEngine()
	w := mpi.NewWorld(e, topology.New(e, tc), schedule.InterferenceAware)
	sys, err := core.NewSystem(w, cc)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse(specStr)
	if err != nil {
		t.Fatal(err)
	}
	h := Arm(sys, spec)

	block := func(rank int) []byte {
		return bytes.Repeat([]byte{byte('A' + rank)}, int(4*mib))
	}
	outcomes := make([]crashOutcome, 2)
	app := w.Launch("app", 2, func(r *mpi.Rank) {
		c := sys.Connect(r)
		f, err := c.Open("f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("rank %d open: %v", r.Rank(), err)
			return
		}
		base := int64(r.Rank()) * 4 * mib
		data := block(r.Rank())
		for i := int64(0); i < 4; i++ {
			if err := f.WriteAt(base+i*mib, 1*mib, data[i*mib:(i+1)*mib]); err != nil {
				t.Errorf("rank %d write: %v", r.Rank(), err)
			}
		}
		f.Close()
		sys.WaitFlush(r.P, "f")
		r.Barrier()
		r.Compute(1.0) // move past the injection window before reading
		other := 1 - r.Rank()
		rf, err := c.Open("f", mpi.ReadOnly)
		if err != nil {
			t.Errorf("rank %d read open: %v", r.Rank(), err)
			return
		}
		got, err := rf.ReadAt(int64(other)*4*mib, 4*mib)
		out := crashOutcome{Rank: r.Rank()}
		switch {
		case errors.Is(err, core.ErrDataLost):
			out.Got = "lost"
		case err != nil:
			out.Got = err.Error()
		case bytes.Equal(got, block(other)):
			out.Got = "ok"
		default:
			out.Got = "WRONG BYTES"
		}
		outcomes[r.Rank()] = out
		rf.Close()
	}, mpi.LaunchOpts{RanksPerNode: 1})
	e.Go("janitor", func(p *sim.Proc) {
		app.Wait(p)
		sys.Shutdown()
	})
	e.Run()
	if d := e.Deadlocked(); d != 0 {
		t.Fatalf("%d processes deadlocked", d)
	}
	return h.Finish(), outcomes, sys.Stats()
}

// TestCrashAfterFlushRescuedFromPFS: node 0 crashes after the flush
// completed; rank 1's read of rank 0's block must be served from the
// flushed PFS copy — correct bytes, counted as degraded.
func TestCrashAfterFlushRescuedFromPFS(t *testing.T) {
	rep, outcomes, st := runCrashScenario(t, "seed=2,check=0.1,horizon=2,crash=0@0.5", true)
	if outcomes[1].Got != "ok" {
		t.Errorf("rank 1 read of crashed producer's flushed block = %q, want ok", outcomes[1].Got)
	}
	if outcomes[0].Got != "ok" {
		t.Errorf("rank 0 read of healthy producer's block = %q, want ok", outcomes[0].Got)
	}
	if st.BytesReadDegraded == 0 {
		t.Error("no bytes counted as degraded despite the PFS rescue")
	}
	if len(rep.Violations) != 0 {
		t.Errorf("invariant violations under crash-after-flush: %v", rep.Violations)
	}
	if len(rep.Faults) != 1 {
		t.Errorf("faults = %v, want exactly the crash", rep.Faults)
	}
}

// TestCrashWithoutCopyReportsDataLost: no flush, no replication — the
// crashed node's block is gone and the read must say so, while the healthy
// node's block stays readable.
func TestCrashWithoutCopyReportsDataLost(t *testing.T) {
	rep, outcomes, _ := runCrashScenario(t, "seed=2,check=0.1,horizon=2,crash=0@0.5", false)
	if outcomes[1].Got != "lost" {
		t.Errorf("rank 1 read of crashed producer's block = %q, want lost", outcomes[1].Got)
	}
	if outcomes[0].Got != "ok" {
		t.Errorf("rank 0 read of healthy producer's block = %q, want ok", outcomes[0].Got)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("invariant violations under data loss: %v", rep.Violations)
	}
}

// TestWriteTriggeredCrashMidWrite crashes node 0 after the 6th completed
// write — mid write phase. Every read must still be exact bytes or
// ErrDataLost.
func TestWriteTriggeredCrashMidWrite(t *testing.T) {
	rep, outcomes, _ := runCrashScenario(t, "seed=2,check=0.1,horizon=2,crash=0@w6", false)
	for _, o := range outcomes {
		if o.Got != "ok" && o.Got != "lost" {
			t.Errorf("rank %d outcome = %q, want ok or lost", o.Rank, o.Got)
		}
	}
	if outcomes[1].Got != "lost" {
		t.Errorf("rank 1 read of crashed producer's block = %q, want lost", outcomes[1].Got)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("invariant violations under mid-write crash: %v", rep.Violations)
	}
}

// TestHarnessDeterministic: identical spec and workload twice — the
// reports (faults, sweep counts, violations) and outcomes must match
// exactly, including the seeded random faults.
func TestHarnessDeterministic(t *testing.T) {
	spec := "seed=5,check=0.1,horizon=2,rand=3,crash=0@0.5,degrade=fabric:0.5@0.2+0.5"
	repA, outA, _ := runCrashScenario(t, spec, true)
	repB, outB, _ := runCrashScenario(t, spec, true)
	if !reflect.DeepEqual(repA, repB) {
		t.Errorf("reports differ:\n%+v\n%+v", repA, repB)
	}
	if !reflect.DeepEqual(outA, outB) {
		t.Errorf("outcomes differ: %v != %v", outA, outB)
	}
}

// TestNonDestructiveFaultsHarmless: stalls and degradations slow the run
// but never lose data or break an invariant.
func TestNonDestructiveFaultsHarmless(t *testing.T) {
	rep, outcomes, _ := runCrashScenario(t,
		"seed=4,check=0.1,horizon=2,rand=2,stall=0@0.001+0.2,degrade=nic:0:0.2@0.001+1,bboutage@0.5+0.5", true)
	for _, o := range outcomes {
		if o.Got != "ok" {
			t.Errorf("rank %d outcome = %q under non-destructive faults", o.Rank, o.Got)
		}
	}
	if len(rep.Violations) != 0 {
		t.Errorf("invariant violations: %v", rep.Violations)
	}
	if len(rep.Faults) < 4 {
		t.Errorf("expected explicit + random faults, got %v", rep.Faults)
	}
}

// TestSkippedOutOfRangeFaults: targets beyond the cluster are recorded as
// skipped, not panics.
func TestSkippedOutOfRangeFaults(t *testing.T) {
	rep, _, _ := runCrashScenario(t, "seed=1,crash=99@0.5,stall=99@0.5+0.1,degrade=ost:99:0.5@0.5", true)
	if len(rep.Faults) != 3 {
		t.Fatalf("faults = %v, want 3 skipped entries", rep.Faults)
	}
	for _, f := range rep.Faults {
		if !contains(f, "skipped") {
			t.Errorf("fault %q not marked skipped", f)
		}
	}
	if len(rep.Violations) != 0 {
		t.Errorf("violations: %v", rep.Violations)
	}
}

func contains(s, sub string) bool {
	return bytes.Contains([]byte(s), []byte(sub))
}

// runMetaCrashScenario is the plane-mode variant of runCrashScenario: the
// metadata service runs as 3 shards × the given replication factor, the
// workload is the same two-rank cross-read, and the system is returned so
// tests can inspect plane statistics after the run.
func runMetaCrashScenario(t *testing.T, specStr string, replicas int) (Report, []crashOutcome, *core.System) {
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
	cc := core.DefaultConfig()
	cc.ChunkSize = 1 * mib
	cc.MetaRangeSize = 16 * mib
	cc.FlushOnClose = true
	cc.MetaShards = 3
	cc.MetaReplicas = replicas

	e := sim.NewEngine()
	w := mpi.NewWorld(e, topology.New(e, tc), schedule.InterferenceAware)
	sys, err := core.NewSystem(w, cc)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse(specStr)
	if err != nil {
		t.Fatal(err)
	}
	h := Arm(sys, spec)

	block := func(rank int) []byte {
		return bytes.Repeat([]byte{byte('A' + rank)}, int(4*mib))
	}
	outcomes := make([]crashOutcome, 2)
	app := w.Launch("app", 2, func(r *mpi.Rank) {
		c := sys.Connect(r)
		f, err := c.Open("f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("rank %d open: %v", r.Rank(), err)
			return
		}
		base := int64(r.Rank()) * 4 * mib
		data := block(r.Rank())
		for i := int64(0); i < 4; i++ {
			if err := f.WriteAt(base+i*mib, 1*mib, data[i*mib:(i+1)*mib]); err != nil {
				t.Errorf("rank %d write: %v", r.Rank(), err)
			}
		}
		f.Close()
		sys.WaitFlush(r.P, "f")
		r.Barrier()
		r.Compute(1.0)
		other := 1 - r.Rank()
		rf, err := c.Open("f", mpi.ReadOnly)
		if err != nil {
			t.Errorf("rank %d read open: %v", r.Rank(), err)
			return
		}
		got, err := rf.ReadAt(int64(other)*4*mib, 4*mib)
		out := crashOutcome{Rank: r.Rank()}
		switch {
		case errors.Is(err, core.ErrDataLost):
			out.Got = "lost"
		case err != nil:
			out.Got = err.Error()
		case bytes.Equal(got, block(other)):
			out.Got = "ok"
		default:
			out.Got = "WRONG BYTES"
		}
		outcomes[r.Rank()] = out
		rf.Close()
	}, mpi.LaunchOpts{RanksPerNode: 1})
	e.Go("janitor", func(p *sim.Proc) {
		app.Wait(p)
		sys.Shutdown()
	})
	e.Run()
	if d := e.Deadlocked(); d != 0 {
		t.Fatalf("%d processes deadlocked", d)
	}
	return h.Finish(), outcomes, sys
}

// TestMetaCrashFailoverKeepsInvariants crashes every shard's leader mid-run
// (one with a recovery window) under R=3. Every read must still return the
// exact written bytes, no committed record may be lost (the plane's ledger
// invariant runs at each transition sweep), and the plane must report the
// failovers and the one recovery.
func TestMetaCrashFailoverKeepsInvariants(t *testing.T) {
	rep, outcomes, sys := runMetaCrashScenario(t,
		"seed=2,check=0.1,horizon=2,metacrash=0@0.4+0.5,metacrash=1@0.5,metacrash=2@0.6", 3)
	for _, o := range outcomes {
		if o.Got != "ok" {
			t.Errorf("rank %d outcome = %q under metacrash, want ok", o.Rank, o.Got)
		}
	}
	if len(rep.Violations) != 0 {
		t.Errorf("invariant violations under metacrash: %v", rep.Violations)
	}
	if len(rep.Faults) != 3 {
		t.Fatalf("faults = %v, want the 3 metacrash injections", rep.Faults)
	}
	for _, f := range rep.Faults {
		if !contains(f, "injected metacrash=") {
			t.Errorf("fault %q not an injected metacrash", f)
		}
	}
	st := sys.Plane().Stats()
	if st.Failovers != 3 {
		t.Errorf("plane failovers = %d, want 3", st.Failovers)
	}
	if st.Recoveries != 1 {
		t.Errorf("plane recoveries = %d, want 1 (only shard 0 had a window)", st.Recoveries)
	}
}

// TestMetaCrashDeterministic: same plane-mode spec twice, byte-identical
// reports and outcomes.
func TestMetaCrashDeterministic(t *testing.T) {
	spec := "seed=7,check=0.1,horizon=2,metacrash=1@0.5+0.3,metacrash=2@0.8"
	repA, outA, _ := runMetaCrashScenario(t, spec, 3)
	repB, outB, _ := runMetaCrashScenario(t, spec, 3)
	if !reflect.DeepEqual(repA, repB) {
		t.Errorf("reports differ:\n%+v\n%+v", repA, repB)
	}
	if !reflect.DeepEqual(outA, outB) {
		t.Errorf("outcomes differ: %v != %v", outA, outB)
	}
}

// TestMetaSplitUnderChaos splits a shard online mid-run and crashes a
// leader shortly after: the reads must return exact bytes, the sweeps must
// stay clean through the migration, and the plane must end with one more
// shard, data genuinely moved.
func TestMetaSplitUnderChaos(t *testing.T) {
	rep, outcomes, sys := runMetaCrashScenario(t,
		"seed=4,check=0.1,horizon=2,metasplit@0.3,metacrash=0@0.5", 3)
	for _, o := range outcomes {
		if o.Got != "ok" {
			t.Errorf("rank %d outcome = %q under metasplit+metacrash, want ok", o.Rank, o.Got)
		}
	}
	if len(rep.Violations) != 0 {
		t.Errorf("invariant violations: %v", rep.Violations)
	}
	if len(rep.Faults) != 2 {
		t.Fatalf("faults = %v, want the metasplit and metacrash injections", rep.Faults)
	}
	if !contains(rep.Faults[0], "injected metasplit@") || !contains(rep.Faults[0], "new shard 3") {
		t.Errorf("first fault %q is not the split injection", rep.Faults[0])
	}
	pl := sys.Plane()
	if pl.Shards() != 4 {
		t.Errorf("plane has %d shards after the split, want 4", pl.Shards())
	}
	st := pl.Stats()
	if st.Splits != 1 || st.SplitRecords == 0 || st.SplitBytes == 0 {
		t.Errorf("split moved nothing: %+v", st)
	}
}

// TestMetaSplitSkips: a second metasplit firing while the first is still
// migrating, or one in legacy ring mode, is recorded as skipped.
func TestMetaSplitSkips(t *testing.T) {
	rep, _, _ := runCrashScenario(t, "seed=1,metasplit@0.5", true)
	if len(rep.Faults) != 1 || !contains(rep.Faults[0], "skipped") {
		t.Errorf("legacy-mode metasplit not skipped: %v", rep.Faults)
	}
}

// TestMetaCrashSkips: without a plane (legacy ring mode), with an unknown
// shard, or when the crash would kill a shard's last alive replica (R=1),
// the fault is recorded as skipped — never a panic or a violation.
func TestMetaCrashSkips(t *testing.T) {
	rep, _, _ := runCrashScenario(t, "seed=1,metacrash=0@0.5", true)
	if len(rep.Faults) != 1 || !contains(rep.Faults[0], "skipped") {
		t.Errorf("legacy-mode metacrash not skipped: %v", rep.Faults)
	}
	rep2, outcomes, _ := runMetaCrashScenario(t, "seed=1,metacrash=99@0.5,metacrash=0@0.6", 1)
	if len(rep2.Faults) != 2 {
		t.Fatalf("faults = %v, want 2 skipped entries", rep2.Faults)
	}
	for _, f := range rep2.Faults {
		if !contains(f, "skipped") {
			t.Errorf("fault %q not marked skipped (unknown shard / last replica)", f)
		}
	}
	for _, o := range outcomes {
		if o.Got != "ok" {
			t.Errorf("rank %d outcome = %q with all metacrashes skipped", o.Rank, o.Got)
		}
	}
	if len(rep2.Violations) != 0 {
		t.Errorf("violations: %v", rep2.Violations)
	}
}
