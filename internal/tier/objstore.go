package tier

// The object-store tier: a flat-namespace campaign-storage layer slotted
// between the burst buffer and the PFS, modelled after the object stores
// evaluated by Chien et al. (high per-operation latency from the HTTP-style
// gateway round-trip, high aggregate bandwidth from parallel gateways).
//
// This file is the extensibility proof of the Backend abstraction: nothing
// under internal/core mentions TierObject. The backend states its
// visibility, sizes its logs with the shared c/p rule and moves bytes; core
// traces them. Its entry in the factories table and meta.TierObject in
// Config.CacheTiers are all it takes to deploy the tier.

import (
	"fmt"

	"univistor/internal/meta"
	"univistor/internal/sim"
	"univistor/internal/striping"
	"univistor/internal/topology"
)

const (
	// objGateways S3-style gateway endpoints front the store; each client
	// request is hashed across them.
	objGateways = 8
	// objGatewayBW is one gateway's sustained bandwidth in bytes/s.
	objGatewayBW = 2 << 30
	// objLatency is the per-operation gateway round-trip (HTTP scale —
	// three orders of magnitude above the fabric, the defining trait of
	// the tier).
	objLatency = 1e-3
	// objTotalBytes is the pool granted to the job.
	objTotalBytes = int64(64) << 40
	// objLogFraction bounds the aggregate per-process log share, like the
	// DRAM and BB fractions.
	objLogFraction = 0.9
	// objStripeSize is the object granularity: log ranges are cut into
	// fixed-size objects, each hashed to a gateway.
	objStripeSize = int64(64) << 20
)

type objStore struct {
	env      *Env
	gateways []*sim.Resource
	readAgg  *sim.Resource // aggregate read leg for flush pipelines
	pool     *topology.Capacity
	fan      striping.Fanout // every log's transfers
}

func newObjStore(env *Env) Backend {
	s := &objStore{
		env:     env,
		readAgg: env.Cluster.E.NewResource("obj-read-agg", float64(objGateways)*float64(objGatewayBW)),
		pool:    topology.NewCapacity("objstore", objTotalBytes),
	}
	for i := 0; i < objGateways; i++ {
		s.gateways = append(s.gateways, env.Cluster.E.NewResource(fmt.Sprintf("objgw[%d]", i), objGatewayBW))
	}
	return s
}

func (s *objStore) Tier() meta.Tier { return meta.TierObject }
func (s *objStore) Shared() bool    { return true }

// Open draws on the job's pool. The store is provisioned per job here (a
// cache in front of the PFS), so the flush pipeline still moves its bytes
// down.
func (s *objStore) Open(req OpenReq) (Device, int64) {
	got := s.env.Cfg.provision(s.pool, meta.TierObject, objLogFraction, req.ProcsGlobal)
	if got <= 0 {
		return nil, 0
	}
	return fileDevice{&objLog{store: s, owner: req.Owner}}, got
}

func (s *objStore) FlushLeg(node int, serverMemPath []*sim.Resource) []*sim.Resource {
	return []*sim.Resource{s.readAgg, s.env.Cluster.Fabric}
}

// objLog is one process's flat object namespace: each objStripeSize slice
// of the log is one object, hashed to a gateway. Capacity was charged to
// the pool by Open, so transfers do no per-write accounting.
type objLog struct {
	store *objStore
	owner int
}

// gateway hashes an object of this log onto a gateway endpoint's index.
func (l *objLog) gateway(obj int64) int {
	h := striping.Mix(uint64(obj)*0x9e3779b97f4a7c15 + uint64(l.owner))
	return int(h % uint64(len(l.store.gateways)))
}

// Write costs what Read does: writes to a reserved log do no accounting.
func (l *objLog) Write(p *sim.Proc, node int, off, size int64, extra ...*sim.Resource) error {
	l.Read(p, node, off, size, extra...)
	return nil
}

// Read pays one gateway round trip, then moves the range as one flow per
// gateway its objects hash to.
func (l *objLog) Read(p *sim.Proc, node int, off, size int64, extra ...*sim.Resource) {
	if size <= 0 {
		return
	}
	s := l.store
	c := s.env.Cluster
	p.Sleep(objLatency)
	// A range spanning many objects is one flow per gateway, like the BB
	// model's per-node parts.
	s.fan.Parts = striping.Cut(s.fan.Parts[:0], off, size, objStripeSize, len(s.gateways), l.gateway)
	s.fan.Transfer(p, []*sim.Resource{c.Nodes[node].NIC, c.Fabric},
		func(u int) *sim.Resource { return s.gateways[u] }, nil, extra)
}
