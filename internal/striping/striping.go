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
package striping

import "fmt"

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

// Assignment is one flushing server's share of the work: Bytes of the file
// written across the OSTs list with the given stripe size. OSTBytes, when
// non-nil, gives the exact byte count landing on each OST (parallel to
// OSTs); otherwise bytes split evenly.
type Assignment struct {
	Server     int
	Bytes      int64
	OSTs       []int
	OSTBytes   []int64
	StripeSize int64
}

// Plan is a complete striping decision.
type Plan struct {
	Policy      string
	PerServer   int   // C_per_server (adaptive case 1; 1 in case 2)
	StripeSize  int64 // S_stripe
	StripeCount int   // C_stripe
	DumServers  int   // C_dum_servers (adaptive case 2; Servers otherwise)
	Assignments []Assignment
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
		plan := Plan{Policy: "adaptive", PerServer: per, StripeSize: stripe,
			StripeCount: count, DumServers: p.Servers}
		for s := 0; s < p.Servers; s++ {
			osts := make([]int, per)
			for i := range osts {
				osts[i] = (s*per + i) % p.MaxUnits
			}
			plan.Assignments = append(plan.Assignments, Assignment{
				Server: s, Bytes: serverBytes(p.FileSize, p.Servers, s),
				OSTs: osts, StripeSize: stripe,
			})
		}
		return plan, nil
	}
	// Case 2: overlap servers, balanced via C_dum (Eqs. 5–6).
	dum := DumServers(p.Servers, p.MaxUnits)
	stripe := p.FileSize / int64(dum)
	if stripe < 1 {
		stripe = 1
	}
	plan := Plan{Policy: "adaptive", PerServer: 1, StripeSize: stripe,
		StripeCount: p.MaxUnits, DumServers: dum}
	// With the smaller stripe, each server's contiguous range covers
	// dum/servers stripes on average; assign each server the OSTs its range
	// actually touches under global round-robin stripe placement.
	// Server ranges are contiguous halves of the file; stripes are placed
	// round-robin over OSTs globally, so each server writes the exact
	// overlap of its range with each stripe.
	cur := int64(0)
	for s := 0; s < p.Servers; s++ {
		bytes := serverBytes(p.FileSize, p.Servers, s)
		if bytes == 0 {
			// A file smaller than the server count leaves trailing servers
			// with nothing to write; give them an explicit empty (not nil)
			// assignment so consumers can range without special-casing.
			plan.Assignments = append(plan.Assignments, Assignment{
				Server: s, OSTs: []int{}, OSTBytes: []int64{}, StripeSize: stripe,
			})
			continue
		}
		start, end := cur, cur+bytes
		cur = end
		var osts []int
		var ostBytes []int64
		idx := map[int]int{}
		for st := start / stripe; st*stripe < end; st++ {
			o := int(st % int64(p.MaxUnits))
			lo, hi := st*stripe, (st+1)*stripe
			if lo < start {
				lo = start
			}
			if hi > end {
				hi = end
			}
			if i, ok := idx[o]; ok {
				ostBytes[i] += hi - lo
			} else {
				idx[o] = len(osts)
				osts = append(osts, o)
				ostBytes = append(ostBytes, hi-lo)
			}
		}
		plan.Assignments = append(plan.Assignments, Assignment{
			Server: s, Bytes: bytes, OSTs: osts, OSTBytes: ostBytes, StripeSize: stripe,
		})
	}
	return plan, nil
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
	plan := Plan{Policy: "eq5", PerServer: 1, StripeSize: stripe,
		StripeCount: min(p.Servers, p.MaxUnits), DumServers: p.Servers}
	for s := 0; s < p.Servers; s++ {
		plan.Assignments = append(plan.Assignments, Assignment{
			Server: s, Bytes: serverBytes(p.FileSize, p.Servers, s),
			OSTs: []int{s % p.MaxUnits}, StripeSize: stripe,
		})
	}
	return plan, nil
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
	all := make([]int, p.MaxUnits)
	for i := range all {
		all[i] = i
	}
	plan := Plan{Policy: "stripe-all", PerServer: p.MaxUnits,
		StripeSize: defaultStripe, StripeCount: p.MaxUnits, DumServers: p.Servers}
	for s := 0; s < p.Servers; s++ {
		plan.Assignments = append(plan.Assignments, Assignment{
			Server: s, Bytes: serverBytes(p.FileSize, p.Servers, s),
			OSTs: all, StripeSize: defaultStripe,
		})
	}
	return plan, nil
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

// serverBytes splits FileSize as evenly as possible: the first
// FileSize mod Servers servers carry one extra byte.
func serverBytes(fileSize int64, servers, s int) int64 {
	base := fileSize / int64(servers)
	if int64(s) < fileSize%int64(servers) {
		return base + 1
	}
	return base
}

// LoadPerOST returns how many bytes land on each OST under the plan — the
// balance metric the dummy-server correction improves.
func (pl Plan) LoadPerOST(maxUnits int) []int64 {
	load := make([]int64, maxUnits)
	for _, a := range pl.Assignments {
		if a.Bytes == 0 || len(a.OSTs) == 0 {
			continue // zero-byte server: nothing lands anywhere
		}
		if a.OSTBytes != nil {
			for i, o := range a.OSTs {
				load[o] += a.OSTBytes[i]
			}
			continue
		}
		per := a.Bytes / int64(len(a.OSTs))
		rem := a.Bytes - per*int64(len(a.OSTs))
		for i, o := range a.OSTs {
			load[o] += per
			if int64(i) < rem {
				load[o]++
			}
		}
	}
	return load
}

// Imbalance returns max/mean of per-OST load (1.0 = perfectly balanced).
func (pl Plan) Imbalance(maxUnits int) float64 {
	load := pl.LoadPerOST(maxUnits)
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
	mean := float64(sum) / float64(maxUnits)
	return float64(max) / mean
}
