// Package chaos is the deterministic fault-injection and invariant-checking
// harness: a seeded schedule of faults — node crashes, server stalls,
// resource degradations, burst-buffer outages, buddy-pair double failures —
// driven entirely by virtual time (or write counts), plus a sweep over the
// system's conservation invariants at configurable intervals, at every
// state-changing transition, and at end of run. Same seed and spec, same
// workload: byte-identical faults, checks, and violations.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"univistor/internal/sim"
)

// Fault kinds.
const (
	// KindCrash fails one node's volatile storage at a virtual time or
	// after a global write count.
	KindCrash = "crash"
	// KindBuddy fails a node AND its replica buddy — the double failure
	// that defeats ReplicateVolatile.
	KindBuddy = "buddy"
	// KindStall freezes one server's metadata service for a window.
	KindStall = "stall"
	// KindDegrade cuts a resource's capacity (NIC, OST, fabric, BB
	// bandwidth) to a fraction, optionally restoring after a window.
	KindDegrade = "degrade"
	// KindBBOutage degrades every burst-buffer service node at once.
	KindBBOutage = "bboutage"
	// KindMetaCrash crashes the metadata plane's leader of one shard,
	// forcing election and WAL-replay failover; with a window the crashed
	// replica recovers (catch-up or snapshot install) after it. Requires
	// MetaShards > 0; skipped otherwise.
	KindMetaCrash = "metacrash"
	// KindMetaSplit starts an online metadata-plane shard split: a new
	// shard is minted and the moved hash arcs migrate as charged batches
	// while the plane keeps serving. Requires MetaShards > 0; skipped
	// otherwise, or when another split is still migrating.
	KindMetaSplit = "metasplit"
)

// Degradable resource classes.
const (
	ResNIC    = "nic"
	ResOST    = "ost"
	ResFabric = "fabric"
	ResBB     = "bb"
)

// Fault is one scheduled injection.
type Fault struct {
	Kind string

	// Target index: crash/buddy node, stall server, degrade unit (unused
	// for fabric and bboutage).
	Index int

	// At is the virtual trigger time. Ignored for write-triggered crashes.
	At sim.Time
	// AfterWrites, when positive, triggers a crash once the global
	// completed-write count reaches it (instead of At).
	AfterWrites int64
	// Dur is the stall/degradation window; 0 means permanent (stalls
	// require a positive window).
	Dur sim.Duration

	// Resource is the degrade class (nic|ost|fabric|bb).
	Resource string
	// Frac is the remaining capacity fraction under degradation, clamped
	// to [minDegradeFrac, 1] when armed.
	Frac float64
}

// String renders the fault in spec-token form (the canonical grammar).
func (f Fault) String() string {
	switch f.Kind {
	case KindCrash:
		if f.AfterWrites > 0 {
			return fmt.Sprintf("crash=%d@w%d", f.Index, f.AfterWrites)
		}
		return fmt.Sprintf("crash=%d@%s", f.Index, ftoa(float64(f.At)))
	case KindBuddy:
		return fmt.Sprintf("buddy=%d@%s", f.Index, ftoa(float64(f.At)))
	case KindStall:
		return fmt.Sprintf("stall=%d@%s+%s", f.Index, ftoa(float64(f.At)), ftoa(float64(f.Dur)))
	case KindDegrade:
		var b strings.Builder
		b.WriteString("degrade=")
		b.WriteString(f.Resource)
		if f.Resource != ResFabric {
			fmt.Fprintf(&b, ":%d", f.Index)
		}
		fmt.Fprintf(&b, ":%s@%s", ftoa(f.Frac), ftoa(float64(f.At)))
		if f.Dur > 0 {
			fmt.Fprintf(&b, "+%s", ftoa(float64(f.Dur)))
		}
		return b.String()
	case KindBBOutage:
		if f.Dur > 0 {
			return fmt.Sprintf("bboutage@%s+%s", ftoa(float64(f.At)), ftoa(float64(f.Dur)))
		}
		return fmt.Sprintf("bboutage@%s", ftoa(float64(f.At)))
	case KindMetaCrash:
		if f.Dur > 0 {
			return fmt.Sprintf("metacrash=%d@%s+%s", f.Index, ftoa(float64(f.At)), ftoa(float64(f.Dur)))
		}
		return fmt.Sprintf("metacrash=%d@%s", f.Index, ftoa(float64(f.At)))
	case KindMetaSplit:
		return fmt.Sprintf("metasplit@%s", ftoa(float64(f.At)))
	}
	return "?" + f.Kind
}

// ftoa renders v exactly, with no '+' in an exponent: the grammar reads
// '+' as the start of a window, so "1e+21" would not parse back.
func ftoa(v float64) string {
	return strings.Replace(strconv.FormatFloat(v, 'g', -1, 64), "e+", "e", 1)
}

// Spec is a complete chaos schedule.
type Spec struct {
	// Seed drives the random fault generator and names the run; two runs
	// with equal Spec values are byte-identical.
	Seed int64
	// Check is the periodic invariant-sweep interval; 0 sweeps only at
	// transitions and end of run.
	Check sim.Duration
	// Horizon bounds the periodic sweeps and random fault times. Defaults
	// to DefaultHorizon when check or rand need it.
	Horizon sim.Time
	// Rand asks for this many extra seeded non-destructive faults (stalls
	// and degradations — never crashes, which change workload results).
	Rand int
	// Faults are the explicitly scheduled injections.
	Faults []Fault
}

// DefaultHorizon is the periodic-check/random-fault window when the spec
// sets check= or rand= without horizon=.
const DefaultHorizon = sim.Time(5.0)

// String renders the spec in canonical token form.
func (s Spec) String() string {
	toks := []string{fmt.Sprintf("seed=%d", s.Seed)}
	if s.Check > 0 {
		toks = append(toks, "check="+ftoa(float64(s.Check)))
	}
	if s.Horizon > 0 {
		toks = append(toks, "horizon="+ftoa(float64(s.Horizon)))
	}
	if s.Rand > 0 {
		toks = append(toks, fmt.Sprintf("rand=%d", s.Rand))
	}
	for _, f := range s.Faults {
		toks = append(toks, f.String())
	}
	return strings.Join(toks, ",")
}

// Parse reads the comma-separated spec grammar:
//
//	seed=N                     PRNG seed (default 1)
//	check=DT                   periodic invariant sweep every DT virtual secs
//	                           (DT at most the horizon)
//	horizon=T                  last periodic sweep / random-fault window
//	                           (only with check= or rand=)
//	rand=K                     K ≥ 0 extra seeded non-destructive faults
//	crash=NODE@T               fail node NODE at virtual time T
//	crash=NODE@wN              fail node NODE after the N-th write completes
//	buddy=NODE@T               fail NODE and its replica buddy at T
//	stall=SRV@T+D              freeze server SRV's metadata service for D
//	metacrash=SHARD@T[+D]      crash metadata-plane shard SHARD's leader at T
//	                           (failover); recover the replica after D
//	metasplit@T                start an online metadata shard split at T
//	degrade=nic:I:F@T[+D]      cut node I's NIC to fraction F at T (for D)
//	degrade=ost:I:F@T[+D]      cut OST I's bandwidth to fraction F
//	degrade=bb:I:F@T[+D]       cut BB node I's bandwidth to fraction F
//	degrade=fabric:F@T[+D]     cut the fabric to fraction F
//	bboutage@T[+D]             degrade every BB node to near-zero at T
func Parse(s string) (Spec, error) {
	spec := Spec{Seed: 1}
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, hasVal := strings.Cut(tok, "=")
		var err error
		switch key {
		case "seed":
			spec.Seed, err = parseInt(key, val, hasVal)
		case "check":
			var v float64
			v, err = parseFloat(key, val, hasVal)
			spec.Check = sim.Duration(v)
		case "horizon":
			var v float64
			v, err = parseFloat(key, val, hasVal)
			spec.Horizon = sim.Time(v)
		case "rand":
			var v int64
			v, err = parseInt(key, val, hasVal)
			if err == nil && v < 0 {
				err = fmt.Errorf("chaos: rand=%s: want a fault count of at least 0", val)
			}
			spec.Rand = int(v)
		case "crash", "buddy", "stall", "metacrash":
			var f Fault
			f, err = parseTargeted(key, val, hasVal)
			spec.Faults = append(spec.Faults, f)
		case "degrade":
			var f Fault
			f, err = parseDegrade(val, hasVal)
			spec.Faults = append(spec.Faults, f)
		default:
			switch {
			case strings.HasPrefix(tok, "bboutage@"):
				var f Fault
				f, err = parseBBOutage(strings.TrimPrefix(tok, "bboutage@"))
				spec.Faults = append(spec.Faults, f)
			case strings.HasPrefix(tok, "metasplit@"):
				var f Fault
				f, err = parseMetaSplit(strings.TrimPrefix(tok, "metasplit@"))
				spec.Faults = append(spec.Faults, f)
			default:
				err = fmt.Errorf("chaos: unknown spec token %q", tok)
			}
		}
		if err != nil {
			return Spec{}, err
		}
	}
	if spec.Horizon > 0 && spec.Check == 0 && spec.Rand == 0 {
		return Spec{}, fmt.Errorf("chaos: horizon=%s bounds nothing without check= or rand=", ftoa(float64(spec.Horizon)))
	}
	if spec.Horizon <= 0 && (spec.Check > 0 || spec.Rand > 0) {
		spec.Horizon = DefaultHorizon
	}
	if spec.Check > 0 && sim.Time(spec.Check) > spec.Horizon {
		return Spec{}, fmt.Errorf("chaos: check=%s exceeds horizon=%s: no sweep would run", ftoa(float64(spec.Check)), ftoa(float64(spec.Horizon)))
	}
	sortFaults(spec.Faults)
	return spec, nil
}

// sortFaults orders faults by time, ties by their spec token, so the
// schedule does not depend on the order the faults were given in.
func sortFaults(faults []Fault) {
	sort.SliceStable(faults, func(i, j int) bool {
		if faults[i].At != faults[j].At {
			return faults[i].At < faults[j].At
		}
		return faults[i].String() < faults[j].String()
	})
}

func parseInt(key, val string, hasVal bool) (int64, error) {
	if !hasVal {
		return 0, fmt.Errorf("chaos: %s needs a value", key)
	}
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("chaos: bad %s value %q", key, val)
	}
	return n, nil
}

func parseFloat(key, val string, hasVal bool) (float64, error) {
	if !hasVal {
		return 0, fmt.Errorf("chaos: %s needs a value", key)
	}
	v, ok := parseNonNeg(val)
	if !ok {
		return 0, fmt.Errorf("chaos: bad %s value %q", key, val)
	}
	return v, nil
}

// parseNonNeg reads a finite, non-negative number; NaN and ±Inf fail.
func parseNonNeg(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil && v >= 0 && !math.IsInf(v, 1)
}

// parseTargeted handles crash=NODE@T, crash=NODE@wN, buddy=NODE@T,
// stall=SRV@T+D, and metacrash=SHARD@T[+D].
func parseTargeted(kind, val string, hasVal bool) (Fault, error) {
	if !hasVal {
		return Fault{}, fmt.Errorf("chaos: %s needs a value", kind)
	}
	idxStr, when, ok := strings.Cut(val, "@")
	if !ok {
		return Fault{}, fmt.Errorf("chaos: %s=%s missing @TIME", kind, val)
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil || idx < 0 {
		return Fault{}, fmt.Errorf("chaos: bad %s target %q", kind, idxStr)
	}
	f := Fault{Kind: kind, Index: idx}
	if kind == KindCrash && strings.HasPrefix(when, "w") {
		n, err := strconv.ParseInt(when[1:], 10, 64)
		if err != nil || n <= 0 {
			return Fault{}, fmt.Errorf("chaos: bad write trigger %q", when)
		}
		f.AfterWrites = n
		return f, nil
	}
	at, dur, err := parseWindow(when, kind == KindStall)
	if err == nil && dur > 0 && (kind == KindCrash || kind == KindBuddy) {
		err = fmt.Errorf("a %s takes a bare time, not a window", kind)
	}
	if err != nil {
		return Fault{}, fmt.Errorf("chaos: %s=%s: %w", kind, val, err)
	}
	f.At, f.Dur = at, dur
	return f, nil
}

// parseDegrade handles degrade=CLASS[:IDX]:FRAC@T[+D].
func parseDegrade(val string, hasVal bool) (Fault, error) {
	if !hasVal {
		return Fault{}, fmt.Errorf("chaos: degrade needs a value")
	}
	head, when, ok := strings.Cut(val, "@")
	if !ok {
		return Fault{}, fmt.Errorf("chaos: degrade=%s missing @TIME", val)
	}
	parts := strings.Split(head, ":")
	f := Fault{Kind: KindDegrade}
	switch {
	case len(parts) == 2 && parts[0] == ResFabric:
		f.Resource = ResFabric
	case len(parts) == 3 && (parts[0] == ResNIC || parts[0] == ResOST || parts[0] == ResBB):
		f.Resource = parts[0]
		idx, err := strconv.Atoi(parts[1])
		if err != nil || idx < 0 {
			return Fault{}, fmt.Errorf("chaos: bad degrade index %q", parts[1])
		}
		f.Index = idx
	default:
		return Fault{}, fmt.Errorf("chaos: bad degrade target %q (want nic:I:F, ost:I:F, bb:I:F, or fabric:F)", head)
	}
	frac, err := strconv.ParseFloat(parts[len(parts)-1], 64)
	if err == nil && frac == 0 {
		// A fraction of 0 is an outage, and degrade would silently clamp
		// it to minDegradeFrac; make the user say what they mean.
		return Fault{}, fmt.Errorf("chaos: degrade fraction 0 requests an outage, which degrade would silently clamp; use the %s fault kind (%s@T[+D]) instead", KindBBOutage, KindBBOutage)
	}
	if err != nil || !(frac > 0 && frac <= 1) { // also rejects NaN
		return Fault{}, fmt.Errorf("chaos: degrade fraction %q outside (0, 1]", parts[len(parts)-1])
	}
	f.Frac = frac
	f.At, f.Dur, err = parseWindow(when, false)
	if err != nil {
		return Fault{}, fmt.Errorf("chaos: degrade=%s: %w", val, err)
	}
	return f, nil
}

func parseBBOutage(when string) (Fault, error) {
	at, dur, err := parseWindow(when, false)
	if err != nil {
		return Fault{}, fmt.Errorf("chaos: bboutage@%s: %w", when, err)
	}
	// An outage is a maximal degradation of every BB node; capacity is
	// clamped (not zeroed) when armed so in-flight flows still drain.
	return Fault{Kind: KindBBOutage, At: at, Dur: dur, Frac: 0}, nil
}

func parseMetaSplit(when string) (Fault, error) {
	at, dur, err := parseWindow(when, false)
	if err != nil || dur > 0 {
		return Fault{}, fmt.Errorf("chaos: metasplit@%s: want a bare time (the migration's duration is the charged transfer, not a window)", when)
	}
	return Fault{Kind: KindMetaSplit, At: at}, nil
}

// parseWindow reads T or T+D.
func parseWindow(s string, needDur bool) (sim.Time, sim.Duration, error) {
	atStr, durStr, hasDur := strings.Cut(s, "+")
	at, ok := parseNonNeg(atStr)
	if !ok {
		return 0, 0, fmt.Errorf("bad time %q", atStr)
	}
	if !hasDur {
		if needDur {
			return 0, 0, fmt.Errorf("missing +DURATION in %q", s)
		}
		return sim.Time(at), 0, nil
	}
	dur, ok := parseNonNeg(durStr)
	if !ok || dur == 0 {
		return 0, 0, fmt.Errorf("bad duration %q", durStr)
	}
	return sim.Time(at), sim.Duration(dur), nil
}
