package bench

// The PR7 metadata-plane scaling figure: charged metadata throughput and
// p99 stat latency versus shard count, at replication factors 1 and 3.
// Unlike the paper figures this drives internal/metaplane directly — the
// point is the metadata service's own scaling, not the data plane's — but
// it uses the same analytic cost parameters the core system wires in, so
// the numbers are comparable with the sim's charged metadata round trips.

import (
	"fmt"

	"univistor/internal/core"
	"univistor/internal/meta"
	"univistor/internal/metaplane"
	"univistor/internal/sim"
	"univistor/internal/topology"
	"univistor/internal/trace"
)

// figMetaShards and figMetaReplicas are the swept plane shapes.
var (
	figMetaShards   = []int{1, 2, 4, 8}
	figMetaReplicas = []int{1, 3}
)

// FigMeta sweeps the metadata plane's shard count at R=1 and R=3 and
// reports two series per replication factor: charged ops per virtual
// second, and the p99 stat (read) latency in microseconds. The x axis is
// the shard count.
func FigMeta(o Options) *Result {
	res := &Result{
		ID:     "figmeta",
		Title:  "Metadata plane scaling — ops/s and p99 stat latency vs shards",
		Metric: "ops/s | p99 stat µs",
	}
	// Enough operations per client that every shard sees sustained load
	// even at 8 shards; scaled down with the quick preset's step count.
	opsPerClient := 150 * o.TimeSteps10
	if opsPerClient <= 0 {
		opsPerClient = 1500
	}
	const clients = 4
	for _, r := range figMetaReplicas {
		names := []string{fmt.Sprintf("ops/s R=%d", r), fmt.Sprintf("p99 stat µs R=%d", r)}
		sweep(res, o, names, figMetaShards, func(shards int) []float64 {
			rate, p99 := runMetaScale(shards, r, clients, opsPerClient)
			return []float64{rate, p99}
		})
	}
	return res
}

// runMetaScale runs one plane shape to completion: `clients` processes
// each committing opsPer records (with a stat after every second put)
// across disjoint files, offsets striding one shard range per op so the
// hash ring spreads the load. Returns charged ops per virtual second and
// the p99 stat latency in microseconds.
func runMetaScale(shards, replicas, clients, opsPer int) (opsPerSec, p99us float64) {
	tc := topology.Cori()
	cc := core.DefaultConfig()
	const rangeSize = int64(1) << 20
	const nodes = 8
	e := sim.NewEngine()
	pl, err := metaplane.New(metaplane.Config{
		Shards:    shards,
		Replicas:  replicas,
		Nodes:     nodes,
		RangeSize: rangeSize,
		Costs:     cc.MetaCosts(tc.NetLatency),
	})
	if err != nil {
		panic(fmt.Sprintf("bench: figmeta plane: %v", err))
	}
	var lat trace.Ledger // stat round trips, timed at the caller
	for c := 0; c < clients; c++ {
		c := c
		e.Go(fmt.Sprintf("meta-client-%d", c), func(p *sim.Proc) {
			fid := meta.FileID(c + 1)
			node := c % nodes
			for i := 0; i < opsPer; i++ {
				off := int64(i) * rangeSize
				pl.Put(p, node, meta.Record{
					FID: fid, Offset: off, Size: rangeSize, Proc: c, VA: off,
				})
				if i%2 == 1 {
					t0 := p.Now()
					pl.Stat(p, node, fid, off)
					lat.Add(float64(p.Now() - t0))
				}
			}
		})
	}
	end := e.Run()
	st := pl.Stats()
	charged := st.Puts + st.Deletes + st.Lookups
	if end > 0 {
		opsPerSec = float64(charged) / float64(end)
	}
	return opsPerSec, trace.Digests(&lat)[0].P99 * 1e6
}
