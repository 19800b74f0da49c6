package gateway

import (
	"encoding/json"
	"testing"

	"univistor/internal/core"
	"univistor/internal/mpi"
	"univistor/internal/schedule"
	"univistor/internal/sim"
	"univistor/internal/topology"
)

const mib = int64(1) << 20

// testSystem builds a small 2-node stack for gateway runs.
func testSystem(t *testing.T) *core.System {
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
	sys, err := core.NewSystem(w, cc)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// smallConfig is a quick closed-loop mix.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Tenants = 8
	cfg.OpsPerTenant = 12
	cfg.OpBytes = 1 * mib
	cfg.Seed = 7
	return cfg
}

// run drives a gateway to completion and fails the test on tenant errors,
// deadlock, or invariant violations.
func run(t *testing.T, sys *core.System, cfg Config) (*Gateway, Report) {
	t.Helper()
	g, err := Start(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.W.E.Run()
	if d := sys.W.E.Deadlocked(); d != 0 {
		t.Fatalf("%d processes deadlocked", d)
	}
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	if viol := g.CheckInvariants(); len(viol) > 0 {
		t.Fatalf("gateway invariants violated: %v", viol)
	}
	if viol := sys.CheckInvariants(); len(viol) > 0 {
		t.Fatalf("system invariants violated: %v", viol)
	}
	return g, g.Report()
}

func TestGatewayClosedLoopPassThrough(t *testing.T) {
	sys := testSystem(t)
	cfg := smallConfig()
	cfg.QoS = false
	_, rep := run(t, sys, cfg)

	want := int64(cfg.Tenants * cfg.OpsPerTenant)
	if rep.Issued != want || rep.Completed != want {
		t.Fatalf("issued/completed = %d/%d, want %d/%d", rep.Issued, rep.Completed, want, want)
	}
	if rep.Rejected != 0 || rep.QuotaDenied != 0 {
		t.Fatalf("pass-through run rejected ops: %+v", rep)
	}
	if rep.Write.Count == 0 || rep.Read.Count == 0 || rep.Stat.Count == 0 {
		t.Fatalf("op mix missing a kind: write=%d read=%d stat=%d",
			rep.Write.Count, rep.Read.Count, rep.Stat.Count)
	}
	if rep.Write.Count+rep.Read.Count+rep.Stat.Count != int(want) {
		t.Fatalf("latency counts don't sum to completed ops")
	}
	for _, d := range []LatencyDigest{rep.Write, rep.Read, rep.Stat} {
		if d.P50 <= 0 || d.P99 < d.P50 || d.P999 < d.P99 || d.Max < d.P999 {
			t.Fatalf("latency digest not ordered: %+v", d)
		}
	}
	if rep.JainFairness <= 0 || rep.JainFairness > 1 {
		t.Fatalf("Jain's index %v outside (0, 1]", rep.JainFairness)
	}
	if rep.AdmissionWaitSeconds != 0 {
		t.Fatalf("pass-through run has admission wait %v", rep.AdmissionWaitSeconds)
	}
	if rep.DeliveredBytes == 0 {
		t.Fatal("no bytes delivered")
	}
}

func TestGatewayQoSShapesAndCaps(t *testing.T) {
	sys := testSystem(t)
	cfg := smallConfig()
	// The burst is exactly one 1 MiB op: every data admission drains the
	// bucket, so any op arriving before a full refill waits.
	cfg.QoS = true
	_, rep := run(t, sys, cfg)

	if !rep.QoS {
		t.Fatal("report does not mark QoS")
	}
	want := int64(cfg.Tenants * cfg.OpsPerTenant)
	if rep.Issued != want {
		t.Fatalf("issued = %d, want %d", rep.Issued, want)
	}
	if rep.Completed+rep.Rejected != rep.Issued {
		t.Fatalf("conservation: %d completed + %d rejected != %d issued",
			rep.Completed, rep.Rejected, rep.Issued)
	}
	if rep.AdmissionWaitSeconds <= 0 {
		t.Fatal("tight token bucket produced no shaping delay")
	}
}

func TestGatewayQuotaDeniesDeterministically(t *testing.T) {
	sys := testSystem(t)
	cfg := smallConfig()
	cfg.QoS = true
	cfg.TenantQuotaBytes = 4 * mib // each tenant gets ~4 data ops
	_, rep := run(t, sys, cfg)

	if rep.QuotaDenied == 0 {
		t.Fatal("tight quota denied nothing")
	}
	if rep.AdmittedBytes > int64(cfg.Tenants)*cfg.TenantQuotaBytes {
		t.Fatalf("admitted %d bytes over the aggregate quota %d",
			rep.AdmittedBytes, int64(cfg.Tenants)*cfg.TenantQuotaBytes)
	}
}

func TestGatewayOpenLoopOverloadInflatesTail(t *testing.T) {
	sys := testSystem(t)
	cfg := smallConfig()
	cfg.QoS = true
	cfg.ArrivalRate = 20 // 20 ops/s of 1 MiB against an 8 MiB/s tenant cap
	cfg.DurationSeconds = 4
	cfg.OpsPerTenant = 0
	_, rep := run(t, sys, cfg)

	if !rep.OpenLoop {
		t.Fatal("report does not mark open loop")
	}
	if rep.Write.Count == 0 {
		t.Fatal("no writes completed")
	}
	// Overloaded open loop: queueing delay dominates, so the tail must
	// sit well above the median.
	if rep.Write.P99 < rep.Write.P50*1.5 {
		t.Errorf("overload did not inflate the tail: p50=%v p99=%v",
			rep.Write.P50, rep.Write.P99)
	}
}

// Two identical runs must produce byte-identical reports (the figure and
// the smoke gate depend on it).
func TestGatewayDeterminism(t *testing.T) {
	digest := func() string {
		sys := testSystem(t)
		cfg := smallConfig()
		cfg.QoS = true
		_, rep := run(t, sys, cfg)
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(js)
	}
	a, b := digest(), digest()
	if a != b {
		t.Fatalf("reports differ across identical runs:\n%s\n%s", a, b)
	}
}

// QoS off must leave the core completely untouched relative to a direct
// drive: the gateway adds no resources and no admission state.
func TestGatewayOffAddsNoResources(t *testing.T) {
	sys := testSystem(t)
	cfg := smallConfig()
	cfg.QoS = false
	g, _ := run(t, sys, cfg)
	if g.ingress != nil {
		t.Fatal("pass-through gateway created an ingress resource")
	}
	for _, tn := range g.tenants {
		if tn.cap != nil || tn.bucket != nil {
			t.Fatal("pass-through gateway created admission state")
		}
	}
}

// Delivered bytes never exceed admitted bytes, with QoS on or off: a
// pass-through run is checked as strictly as a shaped one.
func TestCheckInvariantsDeliveredWithinAdmittedQoSOff(t *testing.T) {
	sys := testSystem(t)
	cfg := smallConfig()
	cfg.QoS = false
	g, _ := run(t, sys, cfg)
	tn := g.tenants[0]
	if tn.deliveredBytes == 0 {
		t.Fatal("tenant 0 delivered nothing; the check below would be vacuous")
	}
	tn.deliveredBytes = tn.admittedBytes + 1
	if viol := g.CheckInvariants(); len(viol) != 1 {
		t.Fatalf("delivered > admitted on a QoS-off run gave violations %v, want exactly one", viol)
	}
}

// Validate must reject configs that would silently do nothing useful: an
// op larger than the tenant burst (every such op rejected, the run
// "succeeds" at ~100% rejects), a quota with QoS off (only QoS admission
// enforces it), and a heavy factor with no heavy tenant.
func TestConfigValidateQoSEdges(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.QoS = true
		return cfg
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("QoS defaults must validate, got %v", err)
	}

	cfg := base()
	cfg.OpBytes = tenantBurstBytes + 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("OpBytes above the tenant burst passed validation")
	}
	cfg.OpBytes = tenantBurstBytes
	if err := cfg.Validate(); err != nil {
		t.Fatalf("an exact-burst op must validate, got %v", err)
	}
	// With QoS off the bucket does not apply.
	cfg.OpBytes = tenantBurstBytes + 1
	cfg.QoS = false
	if err := cfg.Validate(); err != nil {
		t.Fatalf("QoS-off config must ignore the bucket, got %v", err)
	}

	cfg = base()
	cfg.TenantQuotaBytes = 4 * mib
	if err := cfg.Validate(); err != nil {
		t.Fatalf("a quota under QoS must validate, got %v", err)
	}
	cfg.QoS = false
	if err := cfg.Validate(); err == nil {
		t.Fatal("TenantQuotaBytes with QoS off passed validation")
	}

	cfg = base()
	cfg.HeavyFactor = 4
	if err := cfg.Validate(); err == nil {
		t.Fatal("HeavyFactor with HeavyFrac 0 passed validation")
	}
	cfg.HeavyFrac = 0.25
	if err := cfg.Validate(); err != nil {
		t.Fatalf("HeavyFactor with HeavyFrac must validate, got %v", err)
	}
}

// The token-bucket constants must stay admissible and shaping: a stat's
// admission cost fits in the burst, and the peak drain rate exceeds the
// sustained rate, or service always outlasts refill and nothing shapes.
func TestTenantBucketConstants(t *testing.T) {
	if tenantBurstBytes < statCostBytes {
		t.Errorf("tenant burst %d below the stat admission cost %d", tenantBurstBytes, statCostBytes)
	}
	if tenantPeakBps <= TenantRateBps {
		t.Errorf("tenant peak %d B/s does not exceed the sustained rate %d B/s", tenantPeakBps, TenantRateBps)
	}
}
