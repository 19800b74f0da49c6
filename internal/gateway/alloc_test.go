package gateway

import (
	"runtime"
	"testing"

	"univistor/internal/core"
)

// leasedPlane puts the metadata on a 4-shard R=3 plane serving leased
// follower reads.
func leasedPlane(cc *core.Config) {
	cc.MetaShards = 4
	cc.MetaReplicas = 3
	cc.MetaFollowerReads = true
}

// opMix is the small QoS-shaped mix the allocation checks run: writes,
// reads and stats of 16 KiB objects through the tier chain, the token
// buckets and the rate caps.
func opMix() Config {
	cfg := smallConfig()
	cfg.OpBytes = 16 << 10
	cfg.QoS = true
	return cfg
}

// opsMallocs runs cfg with ops operations per tenant on a fresh 2-node
// stack over a leased plane and returns the heap allocations of the run.
func opsMallocs(t *testing.T, cfg Config, ops int) uint64 {
	t.Helper()
	sys := testSystem(t, leasedPlane)
	sys.W.E.SetDifferentialCheck(false) // the oracle's global re-solve allocates
	cfg.OpsPerTenant = ops
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, rep := run(t, sys, cfg)
	runtime.ReadMemStats(&after)
	if want := int64(cfg.Tenants * ops); rep.Completed != want {
		t.Fatalf("%d ops completed, want %d", rep.Completed, want)
	}
	return after.Mallocs - before.Mallocs
}

// The steady-state op path allocates next to nothing: doubling the ops
// per tenant of the mix adds at most maxMallocsPerOp heap allocations per
// extra op (0.00–0.02 measured over 10 runs, ±0.03 under -race; an op cost
// 5.4 before the path stopped allocating). The latency ledgers allocate
// only at each 4096-sample chunk edge, which this mix never reaches, so
// what remains is the amortized growth of logs and WALs and the spread of
// the collector's own allocations from run to run.
func TestExtraOpsAllocateLittle(t *testing.T) {
	const n, maxMallocsPerOp = 150, 0.1
	cfg := opMix()
	base := opsMallocs(t, cfg, n)
	double := opsMallocs(t, cfg, 2*n)
	per := (float64(double) - float64(base)) / float64(cfg.Tenants*n)
	t.Logf("%.2f mallocs per extra op (%d ops: %d, %d ops: %d)", per, n, base, 2*n, double)
	if per > maxMallocsPerOp {
		t.Errorf("%.2f heap allocations per extra op, want ≤ %v", per, maxMallocsPerOp)
	}
}
