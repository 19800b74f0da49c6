// Package gateway is the multi-tenant QoS front end of UniviStor: a
// service layer that drives the core with many simulated tenants issuing
// mixed write/read/stat streams against per-tenant object namespaces.
//
// Tenants arrive open-loop (Poisson arrivals whose rate breathes through
// diurnal burst phases; latency is measured from the scheduled arrival, so
// overload shows up as unbounded queueing delay) or closed-loop (a fixed
// op budget with think time). Object popularity within a tenant is
// Zipf-distributed. With QoS enabled, every operation passes per-tenant
// admission — a deterministic virtual-time token bucket plus an optional
// hard byte quota — and every data payload crosses the tenant's rate-cap
// resource and the shared gateway ingress link, so fairness between
// tenants is enforced by the same incremental max-min allocator that
// shares every other resource in the simulation. With QoS
// off the gateway is a pure pass-through and the core behaves exactly as
// if driven directly.
package gateway

import (
	"fmt"
	"math"
	"math/rand"

	"univistor/internal/core"
	"univistor/internal/mpi"
	"univistor/internal/sim"
	"univistor/internal/trace"
)

// The shape of every tenant's workload.
const (
	// objectsPerTenant and segmentsPerObject bound each tenant's object
	// namespace: ops target one of objectsPerTenant objects, each a file
	// of up to segmentsPerObject segments of OpBytes.
	objectsPerTenant  = 4
	segmentsPerObject = 4

	// writeFrac and readFrac split the op mix; the remainder is stat.
	writeFrac = 0.4
	readFrac  = 0.4

	// burstPhases and burstFactor shape the diurnal load curve: the run
	// is divided into burstPhases windows and the arrival rate (open
	// loop) or think rate (closed loop) is modulated sinusoidally so the
	// peak-to-trough ratio is burstFactor.
	burstPhases = 4
	burstFactor = 3.0

	// ingressBps is the shared gateway ingress capacity every tenant's
	// payloads cross under QoS — the resource max-min fairness is decided
	// on.
	ingressBps = 1 << 30

	// statCostBytes is the admission cost of a stat op (metadata only, no
	// payload).
	statCostBytes = 4 << 10

	// thinkSeconds is the mean exponential think time between a
	// closed-loop tenant's ops.
	thinkSeconds = 0.2

	// TenantRateBps and tenantBurstBytes parameterize each tenant's token
	// bucket under QoS: the sustained admission rate and the burst
	// absorbed above it.
	TenantRateBps    = 8 << 20
	tenantBurstBytes = 1 << 20
	// tenantPeakBps is each tenant's rate cap under QoS — the
	// instantaneous rate ceiling its admitted payloads may move at (the
	// burst drain rate). It must exceed TenantRateBps, or service always
	// outlasts refill and the bucket never shapes.
	tenantPeakBps = 32 << 20
)

// Config shapes a gateway run.
type Config struct {
	// Tenants is the number of simulated tenants. Each tenant runs as its
	// own single-rank application (so its opens/closes are private, not
	// collective across tenants), placed round-robin across nodes.
	Tenants int
	// OpBytes is the payload of one write or read operation.
	OpBytes int64

	// OpsPerTenant selects the closed loop: each tenant issues exactly
	// this many ops, separated by exponential think time with mean
	// thinkSeconds. Must be 0 when ArrivalRate is set.
	OpsPerTenant int
	// ArrivalRate > 0 selects the open loop: each tenant draws Poisson
	// arrivals at this mean rate (ops/s) over DurationSeconds of virtual
	// time (DurationSeconds must be 0 in the closed loop). Latency is
	// measured from the *scheduled* arrival, so service slower than arrival
	// inflates the tail without bound.
	ArrivalRate     float64
	DurationSeconds float64

	// ZipfS is the Zipf skew of object popularity within a tenant
	// (s > 1; anything else means uniform).
	ZipfS float64

	// HeavyFrac marks the first ⌈HeavyFrac·Tenants⌋ tenants as noisy
	// neighbors issuing HeavyFactor× the base load — arrival rate in the
	// open loop, think rate in the closed loop. 0 keeps every tenant at
	// the base load.
	HeavyFrac   float64
	HeavyFactor float64

	// QoS enables admission control (a token bucket per tenant) and
	// per-tenant rate caps.
	QoS bool
	// TenantQuotaBytes is a hard cumulative admission quota per tenant
	// under QoS (0 = unlimited). Ops beyond it are rejected, not shaped.
	TenantQuotaBytes int64

	// Seed drives every tenant's op mix, think times, and object picks;
	// tenant streams are derived by sim.StreamSeed so runs are deterministic
	// and tenants decorrelated.
	Seed int64
}

// DefaultConfig returns a moderate mixed-load gateway setup.
func DefaultConfig() Config {
	return Config{
		Tenants:      64,
		OpBytes:      256 << 10,
		OpsPerTenant: 20,
		ZipfS:        1.2,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Tenants <= 0:
		return fmt.Errorf("gateway: Tenants must be positive, got %d", c.Tenants)
	case c.OpBytes <= 0:
		return fmt.Errorf("gateway: OpBytes must be positive, got %d", c.OpBytes)
	case !finite(c.ArrivalRate) || c.ArrivalRate < 0:
		return fmt.Errorf("gateway: ArrivalRate must be finite and non-negative, got %v", c.ArrivalRate)
	case !finite(c.DurationSeconds):
		return fmt.Errorf("gateway: DurationSeconds must be finite, got %v", c.DurationSeconds)
	case c.ArrivalRate > 0 && c.DurationSeconds <= 0:
		return fmt.Errorf("gateway: open loop needs DurationSeconds > 0")
	case c.ArrivalRate > 0 && c.OpsPerTenant != 0:
		return fmt.Errorf("gateway: OpsPerTenant %d is ignored by the open loop; set it to 0", c.OpsPerTenant)
	case c.ArrivalRate == 0 && c.OpsPerTenant <= 0:
		return fmt.Errorf("gateway: closed loop needs OpsPerTenant > 0")
	case c.ArrivalRate == 0 && c.DurationSeconds != 0:
		return fmt.Errorf("gateway: DurationSeconds %v is ignored by the closed loop; set ArrivalRate or leave it 0", c.DurationSeconds)
	case !finite(c.ZipfS):
		return fmt.Errorf("gateway: ZipfS must be finite, got %v", c.ZipfS)
	case !(c.HeavyFrac >= 0 && c.HeavyFrac <= 1): // also rejects NaN
		return fmt.Errorf("gateway: HeavyFrac must be in [0, 1], got %v", c.HeavyFrac)
	case !finite(c.HeavyFactor):
		return fmt.Errorf("gateway: HeavyFactor must be finite, got %v", c.HeavyFactor)
	case c.HeavyFrac > 0 && c.HeavyFactor < 1:
		return fmt.Errorf("gateway: HeavyFactor must be >= 1 when HeavyFrac is set")
	case c.HeavyFrac == 0 && c.HeavyFactor != 0:
		return fmt.Errorf("gateway: HeavyFactor %v without HeavyFrac marks no tenant heavy", c.HeavyFactor)
	case c.QoS && c.OpBytes > tenantBurstBytes:
		return fmt.Errorf("gateway: OpBytes %d exceeds the tenant burst %d — the bucket rejects any cost above its capacity, so such ops can never be admitted", c.OpBytes, tenantBurstBytes)
	case c.TenantQuotaBytes < 0:
		return fmt.Errorf("gateway: TenantQuotaBytes must be non-negative")
	case c.TenantQuotaBytes > 0 && !c.QoS:
		return fmt.Errorf("gateway: TenantQuotaBytes is only enforced by QoS admission; set QoS")
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// opKind indexes the per-kind latency ledgers.
type opKind int

const (
	opWrite opKind = iota
	opRead
	opStat
	numKinds
)

func (k opKind) String() string { return [...]string{"write", "read", "stat"}[k] }

// objState is one tenant object: lazily opened handles plus the written
// high-water mark (in segments) reads draw from.
type objState struct {
	name    string
	wf, rf  *core.ClientFile
	written int // segments written so far, capped at segmentsPerObject
}

// tenant is one tenant's runtime state.
type tenant struct {
	id      int
	load    float64 // issuing-rate multiplier (HeavyFactor for noisy neighbors)
	rng     *rand.Rand
	zipf    *rand.Zipf
	bucket  *TokenBucket
	cap     *sim.Resource // QoS rate cap every payload crosses; nil with QoS off
	objects []objState

	issued    int64 // ops whose admission decision started
	completed int64
	rejected  int64 // bucket-impossible + quota-denied
	quota     int64 // the quota-denied subset of rejected

	admittedBytes  int64 // admission cost taken (data + stat costs)
	deliveredBytes int64 // data payload moved by completed write/read ops
	waitSeconds    float64
}

// Gateway is one armed gateway run: per-tenant state, the shared ingress
// resource, and the latency ledgers. Create with Start, run the engine,
// then call Report.
type Gateway struct {
	cfg     Config
	sys     *core.System
	ingress *sim.Resource
	tenants []*tenant
	comms   []*mpi.Comm
	lat     [numKinds]trace.Ledger
	runErr  error
}

// Start validates the config, creates the per-tenant admission state, and
// launches every tenant application plus a janitor that shuts the system
// down when the last tenant exits. The caller runs the engine (after
// arming any chaos schedule — register CheckInvariants with the harness)
// and then calls Report.
func Start(sys *core.System, cfg Config) (*Gateway, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Gateway{cfg: cfg, sys: sys}
	e := sys.W.E
	if cfg.QoS {
		g.ingress = e.NewResource("gw-ingress", ingressBps)
	}
	nodes := len(sys.W.Cluster.Nodes)
	heavy := int(cfg.HeavyFrac*float64(cfg.Tenants) + 0.5)
	for i := 0; i < cfg.Tenants; i++ {
		t := g.newTenant(i, i < heavy)
		g.tenants = append(g.tenants, t)
		comm := sys.W.Launch(fmt.Sprintf("gw%04d", i), 1, func(r *mpi.Rank) {
			g.runTenant(r, t)
		}, mpi.LaunchOpts{Nodes: []int{i % nodes}})
		g.comms = append(g.comms, comm)
	}
	e.Go("gw-janitor", func(p *sim.Proc) {
		for _, c := range g.comms {
			c.Wait(p)
		}
		sys.Shutdown()
	})
	return g, nil
}

// newTenant creates tenant i's admission state, RNG stream and object
// namespace; a heavy tenant issues at HeavyFactor times the base load.
func (g *Gateway) newTenant(i int, heavy bool) *tenant {
	cfg := g.cfg
	t := &tenant{id: i, load: 1, rng: rand.New(rand.NewSource(sim.StreamSeed(cfg.Seed, i)))}
	if heavy {
		t.load = cfg.HeavyFactor
	}
	if cfg.ZipfS > 1 {
		t.zipf = rand.NewZipf(t.rng, cfg.ZipfS, 1, objectsPerTenant-1)
	}
	if cfg.QoS {
		t.bucket = NewTokenBucket(TenantRateBps, tenantBurstBytes, g.sys.W.E.Now())
		t.cap = g.sys.W.E.NewResource(fmt.Sprintf("tenant:%04d", i), tenantPeakBps)
	}
	t.objects = make([]objState, objectsPerTenant)
	for o := range t.objects {
		t.objects[o].name = fmt.Sprintf("gw/t%04d/o%03d", i, o)
	}
	return t
}

// burstMul is the diurnal load multiplier at time frac ∈ [0, 1) of the
// run: sinusoidal with peak-to-trough ratio burstFactor, mean 1.
func burstMul(frac float64) float64 {
	const a = (burstFactor - 1) / (burstFactor + 1)
	return 1 + a*math.Sin(2*math.Pi*burstPhases*frac)
}

// runTenant is one tenant's main: the open- or closed-loop op stream,
// then teardown (close every open handle).
func (g *Gateway) runTenant(r *mpi.Rank, t *tenant) {
	c := g.sys.Connect(r)
	cfg := g.cfg
	tr := g.sys.W.Trace

	fail := func(err error) {
		if g.runErr == nil && err != nil {
			g.runErr = fmt.Errorf("tenant %d: %w", t.id, err)
		}
	}
	// step runs one op and records its latency from start; it reports
	// false, after recording the error, when the op failed.
	step := func(start sim.Time) bool {
		kind, lat, err := g.doOp(r, c, t)
		if err != nil {
			fail(err)
			return false
		}
		if lat {
			g.lat[kind].Add(float64(r.Now() - start))
		}
		return true
	}

	if cfg.ArrivalRate > 0 {
		// Open loop: walk the arrival schedule; ops run back to back when
		// the tenant falls behind, and latency counts from the scheduled
		// arrival.
		next := 0.0
		for {
			mul := burstMul(next / cfg.DurationSeconds)
			next += t.rng.ExpFloat64() / (cfg.ArrivalRate * mul * t.load)
			if next >= cfg.DurationSeconds {
				break
			}
			if gap := next - float64(r.Now()); gap > 0 {
				r.P.Sleep(gap)
			}
			if !step(sim.Time(next)) {
				break
			}
		}
	} else {
		for op := 0; op < cfg.OpsPerTenant; op++ {
			mul := burstMul(float64(op) / float64(cfg.OpsPerTenant))
			r.P.Sleep(t.rng.ExpFloat64() * thinkSeconds / (mul * t.load))
			if !step(r.Now()) {
				break
			}
		}
	}

	// Teardown: close read handles first (no flush), then write handles
	// (flush-on-close per system config).
	for o := range t.objects {
		if f := t.objects[o].rf; f != nil {
			fail(f.Close())
		}
	}
	for o := range t.objects {
		if f := t.objects[o].wf; f != nil {
			fail(f.Close())
		}
	}
	tr.Mark(r.P, trace.CatGateway, fmt.Sprintf("tenant%04d-done", t.id))
}

// pickObject draws an object index from the tenant's popularity curve.
func (t *tenant) pickObject() int {
	if t.zipf != nil {
		return int(t.zipf.Uint64())
	}
	return t.rng.Intn(objectsPerTenant)
}

// doOp issues one operation: draw the kind and object, pass admission,
// move the payload across the tenant's rate cap, drive the core. lat
// reports whether the op completed and should be counted in the latency
// ledger (rejected ops are not).
func (g *Gateway) doOp(r *mpi.Rank, c *core.Client, t *tenant) (kind opKind, lat bool, err error) {
	cfg := g.cfg
	u := t.rng.Float64()
	switch {
	case u < writeFrac:
		kind = opWrite
	case u < writeFrac+readFrac:
		kind = opRead
	default:
		kind = opStat
	}
	obj := &t.objects[t.pickObject()]
	if kind == opRead && obj.written == 0 {
		// Nothing to read yet: the op degrades to a stat of the same
		// object (what a real client's failed GET precheck would do).
		kind = opStat
	}
	cost := float64(cfg.OpBytes)
	if kind == opStat {
		cost = statCostBytes
	}

	t.issued++
	if cfg.QoS {
		if q := cfg.TenantQuotaBytes; q > 0 && t.admittedBytes+int64(cost) > q {
			t.rejected++
			t.quota++
			return kind, false, nil
		}
		wait, ok := t.bucket.Admit(r.Now(), cost)
		if !ok {
			t.rejected++
			return kind, false, nil
		}
		if wait > 0 {
			t.waitSeconds += wait
			r.P.Sleep(wait)
		}
	}
	t.admittedBytes += int64(cost)

	sp := g.sys.W.Trace.Begin(r.P, trace.CatGateway, kind.String())
	err = g.serve(r, c, t, obj, kind, cost)
	sp.End(r.Now())
	if err != nil {
		return kind, false, err
	}
	t.completed++
	return kind, true, nil
}

// serve moves one admitted op's payload and drives the core, opening the
// object's handle on first use.
func (g *Gateway) serve(r *mpi.Rank, c *core.Client, t *tenant, obj *objState, kind opKind, cost float64) (err error) {
	cfg := g.cfg
	switch kind {
	case opWrite:
		if obj.wf == nil {
			if obj.wf, err = c.Open(obj.name, mpi.WriteOnly); err != nil {
				return err
			}
		}
		if cfg.QoS {
			// Payload crosses the tenant's rate cap and the shared
			// ingress before landing in the tier chain.
			r.P.Transfer(cost, g.ingress, t.cap)
		}
		seg := obj.written
		if seg >= segmentsPerObject {
			seg = t.rng.Intn(segmentsPerObject) // overwrite a rotated slot
		}
		if err = obj.wf.WriteAt(int64(seg)*cfg.OpBytes, cfg.OpBytes, nil); err != nil {
			return err
		}
		if obj.written < segmentsPerObject {
			obj.written++
		}
		t.deliveredBytes += cfg.OpBytes
	case opRead:
		if obj.rf == nil {
			if obj.rf, err = c.Open(obj.name, mpi.ReadOnly); err != nil {
				return err
			}
		}
		seg := t.rng.Intn(obj.written)
		if _, err = obj.rf.ReadAt(int64(seg)*cfg.OpBytes, cfg.OpBytes); err != nil {
			return err
		}
		if cfg.QoS {
			// Egress: the response payload crosses the same cap.
			r.P.Transfer(cost, g.ingress, t.cap)
		}
		t.deliveredBytes += cfg.OpBytes
	case opStat:
		c.Stat(obj.name)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Invariants, for the chaos harness.

// CheckInvariants returns deterministic one-line violations of the
// gateway's own conservation laws; empty means clean. Safe to call at any
// virtual instant (chaos sweeps run mid-flight).
func (g *Gateway) CheckInvariants() []string {
	var out []string
	now := g.sys.W.E.Now()
	var completed int64
	for _, t := range g.tenants {
		completed += t.completed
		inflight := t.issued - t.completed - t.rejected
		// Tenants issue sequentially: at most one op is between admission
		// and completion at any instant.
		if inflight < 0 || inflight > 1 {
			out = append(out, fmt.Sprintf(
				"gateway tenant %d: issued %d != completed %d + rejected %d (+ at most 1 in flight)",
				t.id, t.issued, t.completed, t.rejected))
		}
		if q := g.cfg.TenantQuotaBytes; q > 0 && t.admittedBytes > q {
			out = append(out, fmt.Sprintf(
				"gateway tenant %d: admitted %d bytes over quota %d", t.id, t.admittedBytes, q))
		}
		if t.bucket != nil {
			if tok := t.bucket.Tokens(now); tok < -1e-6 || tok > t.bucket.Burst()*(1+1e-9) {
				out = append(out, fmt.Sprintf(
					"gateway tenant %d: bucket tokens %.6g outside [0, %.6g]",
					t.id, tok, t.bucket.Burst()))
			}
		}
		if t.deliveredBytes > t.admittedBytes {
			out = append(out, fmt.Sprintf(
				"gateway tenant %d: delivered %d bytes exceeds admitted %d",
				t.id, t.deliveredBytes, t.admittedBytes))
		}
	}
	// step records each completion's latency with no yield in between, so
	// the ledgers hold exactly one sample per completed op at every instant.
	recorded := 0
	for k := range g.lat {
		recorded += g.lat[k].Len()
	}
	if int64(recorded) != completed {
		out = append(out, fmt.Sprintf(
			"gateway: latency ledgers hold %d samples, tenants completed %d ops", recorded, completed))
	}
	return out
}

// ---------------------------------------------------------------------------
// Report.

// LatencyDigest summarizes one op kind's completed-op latencies in virtual
// seconds (linear-interpolated quantiles).
type LatencyDigest struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean_seconds"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
	P999  float64 `json:"p999_seconds"`
	Max   float64 `json:"max_seconds"`
}

// latencyDigest converts a ledger digest to its report form.
func latencyDigest(d trace.Digest) LatencyDigest {
	ld := LatencyDigest{Count: d.Count, P50: d.P50, P95: d.P95, P99: d.P99, P999: d.P999, Max: d.Max}
	if d.Count > 0 {
		ld.Mean = d.Total / float64(d.Count)
	}
	return ld
}

// Report is the gateway's machine-readable outcome, embedded in tool JSON.
// Deterministic for a fixed config and workload.
type Report struct {
	Tenants  int  `json:"tenants"`
	QoS      bool `json:"qos"`
	OpenLoop bool `json:"open_loop"`

	Issued      int64 `json:"ops_issued"`
	Completed   int64 `json:"ops_completed"`
	Rejected    int64 `json:"ops_rejected"`
	QuotaDenied int64 `json:"ops_quota_denied"`

	AdmittedBytes  int64 `json:"admitted_bytes"`
	DeliveredBytes int64 `json:"delivered_bytes"`
	// AdmissionWaitSeconds totals the token-bucket shaping delay.
	AdmissionWaitSeconds float64 `json:"admission_wait_seconds"`

	Write LatencyDigest `json:"write"`
	Read  LatencyDigest `json:"read"`
	Stat  LatencyDigest `json:"stat"`

	// JainFairness is Jain's index over per-tenant delivered bytes:
	// 1 = perfectly fair, 1/n = one tenant took everything.
	JainFairness float64 `json:"jain_fairness"`
}

// Err returns the first tenant error of the run (nil on success).
func (g *Gateway) Err() error { return g.runErr }

// Report digests the run. It only reads the gateway, so it may also be
// taken mid-run; the final one is taken after the engine has drained.
func (g *Gateway) Report() Report {
	ds := trace.Digests(&g.lat[opWrite], &g.lat[opRead], &g.lat[opStat])
	rep := Report{
		Tenants:  len(g.tenants),
		QoS:      g.cfg.QoS,
		OpenLoop: g.cfg.ArrivalRate > 0,
		Write:    latencyDigest(ds[opWrite]),
		Read:     latencyDigest(ds[opRead]),
		Stat:     latencyDigest(ds[opStat]),
	}
	var sum, sumSq float64
	for _, t := range g.tenants {
		rep.Issued += t.issued
		rep.Completed += t.completed
		rep.Rejected += t.rejected
		rep.QuotaDenied += t.quota
		rep.AdmittedBytes += t.admittedBytes
		rep.DeliveredBytes += t.deliveredBytes
		rep.AdmissionWaitSeconds += t.waitSeconds
		x := float64(t.deliveredBytes)
		sum += x
		sumSq += x * x
	}
	if sumSq > 0 {
		rep.JainFairness = sum * sum / (float64(len(g.tenants)) * sumSq)
	} else {
		rep.JainFairness = 1
	}
	return rep
}
