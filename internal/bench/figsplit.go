package bench

// The PR10 online-split / leased-read figure. Two experiments, both
// driving internal/metaplane directly with the core system's analytic
// cost parameters (like figmeta):
//
//   1. A Zipf-skewed stat storm against one hot shard, sweeping the
//      client count at leader-only vs leased follower reads — the lease
//      path spreads the storm across the R=3 replica queues instead of
//      serializing on the leader.
//   2. The same storm against a two-shard plane while one shard splits
//      online, with the p99 stat latency bucketed by phase (before /
//      during / after the migration's transfer windows) — the point is
//      that p99 stays bounded while arcs move.
import (
	"fmt"
	"math/rand"

	"univistor/internal/core"
	"univistor/internal/meta"
	"univistor/internal/metaplane"
	"univistor/internal/sim"
	"univistor/internal/topology"
	"univistor/internal/trace"
)

// figSplitClients is the swept storm width of the lease-scaling half.
var figSplitClients = []int{2, 4, 8, 16}

// splitStormKeys is the preloaded key population the Zipf storm draws
// from, spread over four files so the hash ring is well covered.
const (
	splitStormKeys = 4096
	splitStormFids = 4
)

// FigSplit reports four series: charged stat ops per virtual second
// versus storm width at leader-only and leased follower reads, and the
// p99 stat latency (µs) of an identical storm bucketed by split phase —
// x = 1 before the online split, 2 during its transfer windows, 3 after
// the ring flip.
func FigSplit(o Options) *Result {
	res := &Result{
		ID:     "figsplit",
		Title:  "Online shard split — leased stat storm scaling and p99 through the migration",
		Metric: "ops/s | p99 stat µs (x = clients | split phase)",
	}
	opsPerClient := 120 * o.TimeSteps10
	if opsPerClient <= 0 {
		opsPerClient = 1200
	}
	modes := []struct {
		name   string
		leased bool
	}{{"leader-only", false}, {"leased", true}}
	for _, m := range modes {
		s := Series{Name: "storm ops/s " + m.name}
		for _, clients := range figSplitClients {
			rate := runLeaseStorm(clients, m.leased, opsPerClient)
			s.Points = append(s.Points, Point{Procs: clients, Value: rate})
			o.progress("figsplit storm clients=%d %s ops/s=%.0f", clients, m.name, rate)
		}
		res.Series = append(res.Series, s)
	}
	for _, m := range modes {
		p99s := runSplitStorm(m.leased, opsPerClient)
		s := Series{Name: "split p99 stat µs " + m.name}
		for phase, v := range p99s {
			s.Points = append(s.Points, Point{Procs: phase + 1, Value: v * 1e6})
		}
		o.progress("figsplit split %s p99µs before=%.2f during=%.2f after=%.2f",
			m.name, p99s[0]*1e6, p99s[1]*1e6, p99s[2]*1e6)
		res.Series = append(res.Series, s)
	}
	return res
}

// newStormPlane builds the storm's plane: the core system's cost
// parameters on the Cori fabric.
func newStormPlane(shards int, leased bool) *metaplane.Plane {
	tc := topology.Cori()
	cc := core.DefaultConfig()
	pl, err := metaplane.New(metaplane.Config{
		Shards:        shards,
		Replicas:      3,
		Nodes:         8,
		RangeSize:     1 << 20,
		FollowerReads: leased,
		// Small batches so the split's transfer windows interleave with
		// the storm instead of one long freeze.
		SplitBatchRecords: 64,
		Costs:             cc.MetaCosts(tc.NetLatency),
	})
	if err != nil {
		panic(fmt.Sprintf("bench: figsplit plane: %v", err))
	}
	return pl
}

// stormKey maps a Zipf draw to its preloaded (fid, offset) pair.
func stormKey(k uint64) (meta.FileID, int64) {
	fid := meta.FileID(k%splitStormFids + 1)
	off := int64(k/splitStormFids) * (1 << 20)
	return fid, off
}

// runStorm launches `clients` storm processes on e. Each pays its slice of
// the key population into pl, spin-waits (on the virtual clock) for the
// other clients, and then issues opsPer Zipf-drawn stats through stat.
func runStorm(e *sim.Engine, pl *metaplane.Plane, clients, opsPer int,
	stat func(p *sim.Proc, c int, fid meta.FileID, off int64)) {
	loaded := 0
	for c := 0; c < clients; c++ {
		e.Go(fmt.Sprintf("storm-%d", c), func(p *sim.Proc) {
			for k := c; k < splitStormKeys; k += clients {
				fid, off := stormKey(uint64(k))
				pl.Put(p, c%8, meta.Record{FID: fid, Offset: off, Size: 1 << 20, Proc: c, VA: off})
			}
			loaded++
			for loaded < clients {
				p.Sleep(1e-4)
			}
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(9000+c))), 1.2, 1, splitStormKeys-1)
			for i := 0; i < opsPer; i++ {
				fid, off := stormKey(zipf.Uint64())
				stat(p, c, fid, off)
			}
		})
	}
}

// runLeaseStorm drives a Zipf stat storm of `clients` processes against a
// single hot shard and returns the charged stat throughput of the storm
// window (ops per virtual second). Leader-only serializes every read on
// one replica queue; leased spreads it over all three.
func runLeaseStorm(clients int, leased bool, opsPer int) float64 {
	pl := newStormPlane(1, leased)
	e := sim.NewEngine()
	var start, end sim.Time
	stats := 0
	runStorm(e, pl, clients, opsPer, func(p *sim.Proc, c int, fid meta.FileID, off int64) {
		if start == 0 || p.Now() < start {
			start = p.Now()
		}
		pl.Stat(p, c%8, fid, off)
		stats++
		end = max(end, p.Now())
	})
	e.Run()
	if end <= start {
		return 0
	}
	return float64(stats) / float64(end-start)
}

// runSplitStorm runs the same storm against a two-shard plane, starts an
// online split once a quarter of the storm has been served, and returns
// the p99 stat latency of the ops issued [before, during, after] the
// migration. The Mover charges each batch a fabric hop plus a 256 MiB/s
// wire transfer, so the transfer windows span a real stretch of the storm.
func runSplitStorm(leased bool, opsPer int) [3]float64 {
	const clients = 8
	pl := newStormPlane(2, leased)
	tc := topology.Cori()
	pl.Mover = func(p *sim.Proc, from, to int, bytes int64) {
		p.Sleep(tc.NetLatency + float64(bytes)/(256<<20))
	}
	phase := 0
	pl.SplitDone = func() { phase = 2 }
	e := sim.NewEngine()
	stats := 0
	var lats [3]trace.Ledger
	runStorm(e, pl, clients, opsPer, func(p *sim.Proc, c int, fid meta.FileID, off int64) {
		ph := phase // classify by the phase at the issue instant
		t0 := p.Now()
		pl.Stat(p, c%8, fid, off)
		lats[ph].Add(float64(p.Now() - t0))
		stats++
	})
	e.Go("split-controller", func(p *sim.Proc) {
		// No stat is served before every client has preloaded.
		for 4*stats < clients*opsPer {
			p.Sleep(1e-4)
		}
		if _, err := pl.StartSplit(e); err != nil {
			panic(fmt.Sprintf("bench: figsplit StartSplit: %v", err))
		}
		phase = 1
	})
	e.Run()
	if _, active := pl.Splitting(); active {
		panic("bench: figsplit storm ended before the split finished")
	}
	var out [3]float64
	for i, d := range trace.Digests(&lats[0], &lats[1], &lats[2]) {
		out[i] = d.P99
	}
	return out
}
