// Package striping implements the adaptive data-striping model of paper
// §II-D (Eqs. 2–6), which decides how UniviStor's flushing servers lay their
// contiguous file ranges across the PFS's storage units (OSTs), plus the two
// baselines the evaluation implicitly compares against.
//
// Two regimes:
//
//   - Fewer servers than OSTs (Eq. 2–4): give each server a distinct set of
//     C_per_server = min(C_max_units / C_servers, α) OSTs, where α is the
//     OST count that saturates one server's write bandwidth. Striping wider
//     than α only adds per-OST synchronization cost.
//
//   - More servers than OSTs (Eq. 5–6): overlap servers on OSTs, one OST per
//     server range. Plain round-robin (Eq. 5) leaves C_servers mod
//     C_max_units OSTs carrying one extra server — stragglers. The dummy
//     server count C_dum = ceil(C_servers / C_max_units) × C_max_units
//     (Eq. 6) shrinks the stripe size so the surplus load spreads across all
//     OSTs.
//
// A plan fixes only the stripe size and count. Where the bytes land is one
// model: each flusher writes its ServerRange of the file, and Layout.Parts
// maps that range onto units. The lustre model charges the same Parts, so
// a plan's LoadPerOST and Imbalance are what the simulated flush sees.
package striping

import (
	"fmt"
	"slices"

	"univistor/internal/sim"
)

// DefaultAlpha is α of Eq. 2 for the modeled servers: the OST count that
// saturates one flushing server's write bandwidth.
const DefaultAlpha = 8

// DefaultStripeSize is the system default stripe size the stripe-all
// layout writes with.
const DefaultStripeSize = 1 << 20

// Params are the inputs to a striping decision.
type Params struct {
	MaxUnits  int   // C_max_units: OSTs available
	Servers   int   // C_servers: concurrently flushing servers
	Alpha     int   // α: OSTs that saturate one server
	FileSize  int64 // S_file: bytes to flush
	MaxStripe int64 // S_max: largest allowed stripe
}

func (p Params) validate() error {
	switch {
	case p.MaxUnits <= 0:
		return fmt.Errorf("striping: MaxUnits must be positive, got %d", p.MaxUnits)
	case p.Servers <= 0:
		return fmt.Errorf("striping: Servers must be positive, got %d", p.Servers)
	case p.Alpha <= 0:
		return fmt.Errorf("striping: Alpha must be positive, got %d", p.Alpha)
	case p.FileSize <= 0:
		return fmt.Errorf("striping: FileSize must be positive, got %d", p.FileSize)
	case p.MaxStripe <= 0:
		return fmt.Errorf("striping: MaxStripe must be positive, got %d", p.MaxStripe)
	}
	return nil
}

// Plan is a complete striping decision.
type Plan struct {
	Policy      string
	PerServer   int   // C_per_server (adaptive case 1; 1 in case 2)
	StripeSize  int64 // S_stripe
	StripeCount int   // C_stripe
	DumServers  int   // C_dum_servers (adaptive case 2; Servers otherwise)

	in Params // the inputs the plan was computed for
}

// PerServerUnits computes Eq. 2.
func PerServerUnits(maxUnits, servers, alpha int) int {
	c := maxUnits / servers
	if c > alpha {
		c = alpha
	}
	if c < 1 {
		c = 1
	}
	return c
}

// DumServers computes Eq. 6: the server count rounded up to a multiple of
// the unit count.
func DumServers(servers, maxUnits int) int {
	return (servers + maxUnits - 1) / maxUnits * maxUnits
}

// Adaptive computes the paper's adaptive plan.
func Adaptive(p Params) (Plan, error) {
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	if p.Servers < p.MaxUnits {
		// Case 1: distinct OST sets per server (Eqs. 2–4).
		per := PerServerUnits(p.MaxUnits, p.Servers, p.Alpha)
		stripe := p.FileSize / (int64(p.Servers) * int64(per))
		if stripe > p.MaxStripe {
			stripe = p.MaxStripe
		}
		if stripe < 1 {
			stripe = 1
		}
		count := int(p.FileSize / stripe)
		if count > p.MaxUnits {
			count = p.MaxUnits
		}
		if count < 1 {
			count = 1
		}
		return Plan{Policy: "adaptive", PerServer: per, StripeSize: stripe,
			StripeCount: count, DumServers: p.Servers, in: p}, nil
	}
	// Case 2: overlap servers, balanced via C_dum (Eqs. 5–6). The smaller
	// stripe makes each server's range cover dum/servers stripes, so the
	// surplus spreads over every OST.
	dum := DumServers(p.Servers, p.MaxUnits)
	stripe := p.FileSize / int64(dum)
	if stripe < 1 {
		stripe = 1
	}
	return Plan{Policy: "adaptive", PerServer: 1, StripeSize: stripe,
		StripeCount: p.MaxUnits, DumServers: dum, in: p}, nil
}

// Eq5 is the uncorrected baseline of Eq. 5: each server's range is one
// stripe of ceil(S_file / C_servers) bytes, assigned to OSTs round-robin
// over min(C_servers, C_max_units) units. When Servers is not a multiple
// of MaxUnits, some OSTs carry an extra server and straggle.
func Eq5(p Params) (Plan, error) {
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	stripe := (p.FileSize + int64(p.Servers) - 1) / int64(p.Servers)
	return Plan{Policy: "eq5", PerServer: 1, StripeSize: stripe,
		StripeCount: min(p.Servers, p.MaxUnits), DumServers: p.Servers, in: p}, nil
}

// StripeAll is the conventional baseline: every server writes its range
// across all OSTs with the system default stripe size. Each write op then
// contacts every OST (synchronization overhead), and OST load depends on
// range alignment rather than deliberate assignment.
func StripeAll(p Params, defaultStripe int64) (Plan, error) {
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	if defaultStripe <= 0 {
		defaultStripe = DefaultStripeSize
	}
	return Plan{Policy: "stripe-all", PerServer: p.MaxUnits,
		StripeSize: defaultStripe, StripeCount: p.MaxUnits, DumServers: p.Servers, in: p}, nil
}

// Policies are the flush layouts ForPolicy accepts: the adaptive plan and
// its two baselines.
var Policies = []string{"adaptive", "eq5", "stripe-all"}

// ForPolicy computes the plan of the named flush layout, one of Policies.
func ForPolicy(policy string, p Params) (Plan, error) {
	switch policy {
	case "adaptive":
		return Adaptive(p)
	case "eq5":
		return Eq5(p)
	case "stripe-all":
		return StripeAll(p, DefaultStripeSize)
	}
	return Plan{}, fmt.Errorf("striping: unknown policy %q", policy)
}

// ServerRange returns server s's contiguous range [off, off+size) of a
// file split evenly over servers flushers: the first fileSize mod servers
// servers carry one extra byte.
func ServerRange(fileSize int64, servers, s int) (off, size int64) {
	base, rem := fileSize/int64(servers), fileSize%int64(servers)
	off = int64(s)*base + min(int64(s), rem)
	size = base
	if int64(s) < rem {
		size++
	}
	return off, size
}

// Layout places a file's stripes on a PFS of Units storage units: stripe i
// lands on unit (Start + i mod Count) mod Units.
type Layout struct {
	Size  int64 // bytes per stripe
	Count int   // units the file is striped across
	Start int   // unit of stripe 0
	Units int   // units in the file system
}

// Part is the share of a byte range that lands on one unit.
type Part struct {
	Unit int
	Size int64
}

// Parts distributes the byte range [off, off+size) over the layout's
// stripes and returns exact per-unit byte counts, in stripe order.
// Exactness matters: the adaptive-striping flush relies on stripe-aligned
// server ranges producing perfectly balanced unit loads, which an
// even-split approximation would destroy. Ranges spanning more than four
// passes over the stripe set collapse to an (asymptotically exact) even
// split.
func (l Layout) Parts(off, size int64) []Part { return l.AppendParts(nil, off, size) }

// AppendParts is Parts appending into dst, so a caller that reuses one
// buffer cuts ranges without allocating.
func (l Layout) AppendParts(dst []Part, off, size int64) []Part {
	if Stripes(off, size, l.Size) > 4*int64(l.Count) {
		return Even(dst, size, l.Count, func(i int) int { return (l.Start + i) % l.Units })
	}
	return Cut(dst, off, size, l.Size, l.Count, func(stripe int64) int {
		return (l.Start + int(stripe%int64(l.Count))) % l.Units
	})
}

// Stripes returns how many stripes of stripeSize bytes the byte range
// [off, off+size) touches.
func Stripes(off, size, stripeSize int64) int64 {
	if size <= 0 {
		return 0
	}
	return (off+size-1)/stripeSize - off/stripeSize + 1
}

// Cut is the one stripe walk of every striped device (PFS OSTs, burst-buffer
// nodes, object-store gateways): it cuts the byte range [off, off+size)
// into stripes of stripeSize bytes, sends stripe i to unit(i), and appends
// to dst one Part per unit with all its bytes, in the order the units are
// first reached. unit takes at most units distinct values.
func Cut(dst []Part, off, size, stripeSize int64, units int, unit func(stripe int64) int) []Part {
	n := Stripes(off, size, stripeSize)
	if n == 0 {
		return dst
	}
	base := len(dst)
	dst = slices.Grow(dst, int(min(n, int64(units))))
	for st := off / stripeSize; n > 0; st, n = st+1, n-1 {
		lo, hi := max(st*stripeSize, off), min((st+1)*stripeSize, off+size)
		u, i := unit(st), base
		for i < len(dst) && dst[i].Unit != u {
			i++
		}
		if i == len(dst) {
			dst = append(dst, Part{Unit: u})
		}
		dst[i].Size += hi - lo
	}
	return dst
}

// Even appends to dst a split of size bytes over units unit(0), …,
// unit(n-1); the first size mod n of them carry one extra byte. It is the
// whole-file shortcut of a range that passes over a device's stripe set
// many times.
func Even(dst []Part, size int64, n int, unit func(i int) int) []Part {
	per, rem := size/int64(n), size%int64(n)
	dst = slices.Grow(dst, n)
	for i := range n {
		part := Part{Unit: unit(i), Size: per}
		if int64(i) < rem {
			part.Size++
		}
		dst = append(dst, part)
	}
	return dst
}

// Mix is the one stripe hash of the striped devices: a 64-bit finalizer
// that spreads consecutive and power-of-two-strided indices over units.
func Mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Fanout is the one transfer body of every striped device: Parts holds the
// device's stripe walk, and Transfer turns it into one flow per part. A
// transfer fills Parts after its latency sleep and is done with the scratch
// once TransferAll has started its flows, so no call holds it across a
// yield and one Fanout serves every file of a device. Capacity walks may
// reuse Parts between transfers.
type Fanout struct {
	Parts []Part
	flows []sim.Flow
	path  []*sim.Resource
}

// Transfer starts one flow per part and blocks p until all drain. Each
// path is head, then unit(part.Unit), then lock if not nil, then extra.
func (f *Fanout) Transfer(p *sim.Proc, head []*sim.Resource, unit func(int) *sim.Resource, lock *sim.Resource, extra []*sim.Resource) {
	f.flows, f.path = f.flows[:0], f.path[:0]
	for _, part := range f.Parts {
		lo := len(f.path)
		f.path = append(append(f.path, head...), unit(part.Unit))
		if lock != nil {
			f.path = append(f.path, lock)
		}
		f.path = append(f.path, extra...)
		f.flows = append(f.flows, sim.Flow{Size: float64(part.Size), Path: f.path[lo:]})
	}
	p.TransferAll(f.flows)
}

// Layout returns the layout the flush creates its file with: the plan's
// stripe size and count, starting at unit 0.
func (pl Plan) Layout() Layout {
	return Layout{Size: pl.StripeSize, Count: pl.StripeCount, Units: pl.in.MaxUnits}
}

// LoadPerOST returns how many bytes land on each OST when every server
// writes its ServerRange through the plan's Layout — the balance metric the
// dummy-server correction improves.
func (pl Plan) LoadPerOST() []int64 {
	load := make([]int64, pl.in.MaxUnits)
	l := pl.Layout()
	for s := 0; s < pl.in.Servers; s++ {
		for _, part := range l.Parts(ServerRange(pl.in.FileSize, pl.in.Servers, s)) {
			load[part.Unit] += part.Size
		}
	}
	return load
}

// Imbalance returns max/mean of per-OST load (1.0 = perfectly balanced).
func (pl Plan) Imbalance() float64 {
	load := pl.LoadPerOST()
	var max, sum int64
	for _, l := range load {
		if l > max {
			max = l
		}
		sum += l
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(load))
	return float64(max) / mean
}
