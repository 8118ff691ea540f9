// Package backoff is the repository's single definition of retry
// delays: exponential doubling from a base, saturating at a cap so the
// shift can never overflow time.Duration into a negative (instantly
// returning) or absurdly long sleep, with optional proportional jitter
// for callers that retry against a shared service and must not
// synchronize their retries into waves.
//
// The affinityd client retry loop uses a jittered Policy.
package backoff

import (
	"context"
	"math/rand"
	"time"
)

// DefaultCap is the saturation bound used when a Policy leaves Cap
// zero. Beyond ~30s a retry loop is effectively wedged anyway.
const DefaultCap = 30 * time.Second

// Delay returns the backoff before retry attempt (0-based): base
// doubling per attempt, saturating at cap. The saturation test divides
// instead of multiplying — base<<attempt may overflow, cap>>attempt
// cannot (Go shifts past the width yield 0, so huge attempts saturate
// too). A non-positive base disables waiting; a non-positive cap takes
// DefaultCap; a negative attempt counts as 0.
func Delay(base, cap time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	if cap <= 0 {
		cap = DefaultCap
	}
	if attempt < 0 {
		attempt = 0
	}
	if base > cap>>uint(attempt) {
		return cap
	}
	return base << uint(attempt)
}

// Policy is a reusable retry-delay schedule. The zero value waits not
// at all (Base 0); a Policy with only Base set doubles up to
// DefaultCap with no jitter.
type Policy struct {
	// Base is the delay before the first retry; <= 0 disables waiting.
	Base time.Duration
	// Cap saturates the doubling; <= 0 means DefaultCap.
	Cap time.Duration
	// Jitter in [0, 1] is the fraction of each delay that is randomized
	// away: the wait is drawn uniformly from [d*(1-Jitter), d], so the
	// cap still bounds every sleep.
	Jitter float64
}

// Delay returns the (possibly jittered) backoff before retry attempt
// (0-based).
func (p Policy) Delay(attempt int) time.Duration {
	return p.delayAt(attempt, rand.Float64())
}

// delayAt is Delay with the jitter draw u (in [0, 1)) made explicit —
// the deterministic core the table tests pin.
func (p Policy) delayAt(attempt int, u float64) time.Duration {
	d := Delay(p.Base, p.Cap, attempt)
	if d == 0 || p.Jitter <= 0 {
		return d
	}
	j := p.Jitter
	if j > 1 {
		j = 1
	}
	return d - time.Duration(u*j*float64(d))
}

// Sleep waits for d or until ctx is done, whichever comes first,
// returning ctx.Err() when interrupted — the ctx-aware sleep a retry
// loop needs so a caller's deadline cuts the backoff short.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
