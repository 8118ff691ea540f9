package backoff

import (
	"context"
	"testing"
	"time"
)

// TestDelaySaturates pins the overflow-proof doubling schedule,
// including the cases that used to live beside the harness retry loop:
// base<<attempt would overflow time.Duration at large attempts (1s goes
// negative at attempt 34) and Go shift counts past the word width.
func TestDelaySaturates(t *testing.T) {
	const cap = 30 * time.Second
	cases := []struct {
		base    time.Duration
		attempt int
		want    time.Duration
	}{
		{0, 5, 0},            // no backoff configured
		{-time.Second, 3, 0}, // negative base disables waiting
		{time.Millisecond, 0, time.Millisecond},
		{time.Millisecond, 3, 8 * time.Millisecond}, // doubling intact below the cap
		{time.Second, 4, 16 * time.Second},
		{time.Second, 5, cap},          // first clamped step (32s > 30s)
		{time.Second, 34, cap},         // would be negative unclamped
		{time.Second, 200, cap},        // shift count past the word width
		{time.Minute, 0, cap},          // base already above the cap
		{time.Second, -3, time.Second}, // negative attempt counts as 0
	}
	for _, tc := range cases {
		if got := Delay(tc.base, cap, tc.attempt); got != tc.want {
			t.Errorf("Delay(%v, %v, %d) = %v, want %v", tc.base, cap, tc.attempt, got, tc.want)
		}
		if got := Delay(tc.base, cap, tc.attempt); got < 0 || got > cap {
			t.Errorf("Delay(%v, %v, %d) = %v out of [0, %v]", tc.base, cap, tc.attempt, got, cap)
		}
	}
}

// TestRetryBackoffClamped pins the overflow fix of the doubling retry
// delay: base << attempt used to overflow time.Duration at large attempt
// counts (1s of base backoff goes negative at attempt 34); the delay must
// instead saturate at the cap for every attempt.
func TestRetryBackoffClamped(t *testing.T) {
	const maxRetryBackoff = DefaultCap
	cases := []struct {
		base    time.Duration
		attempt int
		want    time.Duration
	}{
		{0, 5, 0}, // no backoff configured
		{time.Millisecond, 0, time.Millisecond},
		{time.Millisecond, 3, 8 * time.Millisecond}, // doubling intact below the cap
		{time.Second, 4, 16 * time.Second},
		{time.Second, 5, maxRetryBackoff},   // first clamped step (32s > 30s)
		{time.Second, 34, maxRetryBackoff},  // would be negative unclamped
		{time.Second, 200, maxRetryBackoff}, // shift count past the word width
		{time.Minute, 0, maxRetryBackoff},   // base already above the cap
	}
	for _, tc := range cases {
		if got := Delay(tc.base, maxRetryBackoff, tc.attempt); got != tc.want {
			t.Errorf("Delay(%v, %v, %d) = %v, want %v", tc.base, maxRetryBackoff, tc.attempt, got, tc.want)
		}
		if got := Delay(tc.base, maxRetryBackoff, tc.attempt); got < 0 || got > maxRetryBackoff {
			t.Errorf("Delay(%v, %v, %d) = %v out of [0, %v]", tc.base, maxRetryBackoff, tc.attempt, got, maxRetryBackoff)
		}
	}
}

// TestDelayDefaultCap pins that a non-positive cap falls back to
// DefaultCap rather than disabling saturation.
func TestDelayDefaultCap(t *testing.T) {
	if got := Delay(time.Second, 0, 200); got != DefaultCap {
		t.Errorf("Delay with zero cap at attempt 200 = %v, want DefaultCap %v", got, DefaultCap)
	}
	if got := Delay(time.Second, -1, 40); got != DefaultCap {
		t.Errorf("Delay with negative cap at attempt 40 = %v, want DefaultCap %v", got, DefaultCap)
	}
}

// TestPolicyJitterBounds pins the jitter window: a delay d with jitter
// j is drawn from [d*(1-j), d], so the cap is still the hard bound.
func TestPolicyJitterBounds(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Cap: time.Second, Jitter: 0.5}
	for attempt := 0; attempt < 12; attempt++ {
		full := Delay(p.Base, p.Cap, attempt)
		lo := full - time.Duration(0.5*float64(full))
		for _, u := range []float64{0, 0.25, 0.5, 0.999999} {
			got := p.delayAt(attempt, u)
			if got < lo || got > full {
				t.Errorf("delayAt(attempt=%d, u=%v) = %v outside [%v, %v]", attempt, u, got, lo, full)
			}
		}
		if got := p.delayAt(attempt, 0); got != full {
			t.Errorf("delayAt(attempt=%d, u=0) = %v, want the full delay %v", attempt, got, full)
		}
	}
	// Jitter > 1 clamps to 1 (delays may reach 0, never negative).
	wild := Policy{Base: time.Millisecond, Jitter: 4}
	for _, u := range []float64{0, 0.5, 0.999999} {
		if got := wild.delayAt(0, u); got < 0 || got > time.Millisecond {
			t.Errorf("jitter>1 delayAt(0, %v) = %v out of [0, 1ms]", u, got)
		}
	}
	// Zero jitter is exactly the deterministic schedule.
	flat := Policy{Base: time.Millisecond, Cap: time.Second}
	for attempt := 0; attempt < 8; attempt++ {
		if got, want := flat.Delay(attempt), Delay(time.Millisecond, time.Second, attempt); got != want {
			t.Errorf("jitterless Policy.Delay(%d) = %v, want %v", attempt, got, want)
		}
	}
}

// TestSleepHonorsContext pins that a caller's deadline cuts the backoff
// short instead of sleeping through it.
func TestSleepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := Sleep(ctx, time.Minute); err != context.Canceled {
		t.Errorf("Sleep on canceled ctx = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Sleep on canceled ctx took %v", elapsed)
	}
	if err := Sleep(context.Background(), 0); err != nil {
		t.Errorf("Sleep(0) = %v, want nil", err)
	}
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Errorf("Sleep(1ms) = %v, want nil", err)
	}
}
