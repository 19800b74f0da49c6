package gateway

// Deterministic virtual-time token bucket: the per-tenant admission
// control of the gateway. Tokens are bytes; they refill continuously at
// Rate bytes/s up to Burst, and every admitted operation takes its cost up
// front. Admission is *shaping*, not dropping: an operation whose cost the
// bucket cannot cover yet waits exactly until it can — the deficit is
// pre-charged against future refill, so the wait is computed in closed
// form and the bucket never goes persistently negative. Only an operation
// that can never be covered (cost above the bucket capacity, or a drained
// bucket with zero refill) is rejected.

import (
	"fmt"

	"univistor/internal/sim"
)

// TokenBucket is one tenant's admission state. The zero value is not
// usable; create with NewTokenBucket.
type TokenBucket struct {
	rate   float64 // refill, bytes per virtual second
	burst  float64 // capacity, bytes
	tokens float64
	last   sim.Time // virtual time of the last refill
}

// NewTokenBucket returns a bucket that starts full at virtual time now.
// burst must be positive; rate may be zero (a fixed allowance that never
// refills — useful for hard prepaid quotas) but not negative.
func NewTokenBucket(rate, burst float64, now sim.Time) *TokenBucket {
	if burst <= 0 {
		panic(fmt.Sprintf("gateway: token bucket burst must be positive, got %v", burst))
	}
	if rate < 0 {
		panic(fmt.Sprintf("gateway: token bucket rate must be non-negative, got %v", rate))
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// refill accrues tokens for the idle gap since the last interaction,
// capped at the burst capacity. last never moves backward: a pre-charged
// Admit sets it into the future (now + wait), and rewinding it would
// re-credit refill already spent on the deficit, over-admitting.
func (b *TokenBucket) refill(now sim.Time) {
	if now <= b.last {
		return
	}
	b.tokens += b.rate * float64(now-b.last)
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

// Admit charges cost tokens at virtual time now. ok reports whether the
// operation can ever be admitted; when ok, wait is the virtual seconds the
// caller must delay before starting it (0 when the bucket covers the cost
// immediately). The cost is taken up front — a positive wait pre-charges
// the refill accruing during the delay — so concurrent callers in one
// virtual instant serialize correctly. cost must be non-negative; a zero
// cost is always admitted instantly.
func (b *TokenBucket) Admit(now sim.Time, cost float64) (wait float64, ok bool) {
	if cost < 0 {
		panic(fmt.Sprintf("gateway: admission cost must be non-negative, got %v", cost))
	}
	b.refill(now)
	if cost <= b.tokens {
		b.tokens -= cost
		return 0, true
	}
	if cost > b.burst || b.rate <= 0 {
		// Never admissible: larger than the bucket can ever hold, or the
		// bucket is drained and never refills.
		return 0, false
	}
	deficit := cost - b.tokens
	wait = deficit / b.rate
	// Pre-charge: the tokens accruing during the wait are exactly the
	// deficit, so the bucket is empty at the admission instant.
	b.tokens = 0
	b.last = now + sim.Time(wait)
	return wait, true
}

// Tokens reports the balance the bucket would hold at virtual time now.
// It is a pure projection — no state is written — so observability
// callers (invariant sweeps, debug dumps) may probe the bucket at any
// instant, including mid-shaping-wait, without perturbing admission.
func (b *TokenBucket) Tokens(now sim.Time) float64 {
	tokens := b.tokens
	if now > b.last {
		tokens += b.rate * float64(now-b.last)
		if tokens > b.burst {
			tokens = b.burst
		}
	}
	return tokens
}

// Burst returns the bucket capacity in bytes.
func (b *TokenBucket) Burst() float64 { return b.burst }
