// Package realloc closes the telemetry → placement loop: a
// reconciliation pass that watches the machine's per-bank occupancy at a
// configurable cadence (an epoch of N sim-cycles), smooths it with an
// EWMA, and migrates hot irregular granules between L3 banks mid-run.
// The paper's allocator decides placement exactly once, at allocation
// time; this package asks how much of a hotspot, phase change, or
// mid-run bank death a migrating allocator can recover.
//
// Everything here is deterministic by construction: the epoch decision
// function is the pure Plan (tie-breaks fully specified, no RNG, no
// map iteration), epochs close at access-stream boundaries driven by
// the single workload goroutine, and reading a counter never changes
// one — so the migration schedule is identical at any -j.
package realloc

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Config parameterizes the reconciler. The zero value disables it; a
// non-zero Epoch enables it. Parse fills unset knobs with the defaults
// below, so `-realloc epoch=20000` is a complete configuration.
type Config struct {
	// Epoch is the reconciliation cadence in sim-cycles; 0 disables the
	// reconciler entirely (no hook installed, fast paths untouched).
	Epoch uint64
	// Threshold is the imbalance trigger: the EWMA-smoothed
	// max/mean - 1 over alive banks' busy cycles must reach it before
	// any balance migration is planned. +Inf arms the reconciler
	// without ever firing it (the byte-identity control).
	Threshold float64
	// Budget caps balance migrations per epoch. Emergency re-homes off
	// a dead bank are not budgeted — stranded data moves regardless.
	Budget int
	// Hysteresis pins a migrated granule for this many epochs,
	// preventing ping-pong.
	Hysteresis int
	// Payback is the horizon, in epochs, over which a migration's
	// projected per-epoch saving must cover its modeled cost.
	Payback int
	// Alpha is the EWMA smoothing factor for bank and granule heat,
	// in (0, 1]: heat = alpha*epoch + (1-alpha)*heat.
	Alpha float64
	// Gain is the projected cycles saved per access when a granule
	// moves off the hottest bank — the benefit side of the
	// cost/benefit test.
	Gain float64
}

// Default knob values, applied by Parse for clauses left unset.
const (
	DefaultThreshold  = 0.25
	DefaultBudget     = 4
	DefaultHysteresis = 3
	DefaultPayback    = 8
	DefaultAlpha      = 0.5
	DefaultGain       = 2.0
)

// Enabled reports whether the reconciler runs.
func (c Config) Enabled() bool { return c.Epoch > 0 }

// WithDefaults returns c with every unset secondary knob at its default.
func (c Config) WithDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = DefaultThreshold
	}
	if c.Budget == 0 {
		c.Budget = DefaultBudget
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = DefaultHysteresis
	}
	if c.Payback == 0 {
		c.Payback = DefaultPayback
	}
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.Gain == 0 {
		c.Gain = DefaultGain
	}
	return c
}

// Validate checks an enabled config; the zero (disabled) value is valid.
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if c.Threshold < 0 || math.IsNaN(c.Threshold) {
		return fmt.Errorf("realloc: threshold %g must be >= 0 (or inf)", c.Threshold)
	}
	if c.Budget < 0 {
		return fmt.Errorf("realloc: budget %d must be >= 0", c.Budget)
	}
	if c.Hysteresis < 0 {
		return fmt.Errorf("realloc: hysteresis %d must be >= 0", c.Hysteresis)
	}
	if c.Payback < 1 {
		return fmt.Errorf("realloc: payback %d must be >= 1", c.Payback)
	}
	if !(c.Alpha > 0 && c.Alpha <= 1) {
		return fmt.Errorf("realloc: alpha %g outside (0,1]", c.Alpha)
	}
	if c.Gain < 0 || math.IsNaN(c.Gain) {
		return fmt.Errorf("realloc: gain %g must be >= 0", c.Gain)
	}
	return nil
}

// Parse reads the -realloc flag grammar: comma-separated clauses
//
//	epoch=N        reconciliation cadence in sim-cycles (required to enable)
//	threshold=X    imbalance trigger (max/mean - 1); "inf" never fires
//	budget=N       balance migrations per epoch
//	hysteresis=N   epochs a migrated granule stays pinned
//	payback=N      epochs a migration must pay for itself within
//	alpha=X        EWMA smoothing factor in (0,1]
//	gain=X         projected cycles saved per access moved off a hot bank
//
// An empty string (or "off", String's disabled rendering) parses to the
// disabled zero Config. Unset clauses —
// and, matching the repo's zero-selects-default convention for
// sub-configs, clauses explicitly set to zero — take the Default*
// values; use threshold=inf for a reconciler that observes but never
// migrates.
func Parse(v string) (Config, error) {
	v = strings.TrimSpace(v)
	if v == "" || v == "off" {
		return Config{}, nil
	}
	var c Config
	for _, clause := range strings.Split(v, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return Config{}, fmt.Errorf("realloc: clause %q is not key=value", clause)
		}
		switch key {
		case "epoch":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || n == 0 {
				return Config{}, fmt.Errorf("realloc: epoch %q: want a positive cycle count", val)
			}
			c.Epoch = n
		case "threshold":
			if val == "inf" {
				c.Threshold = math.Inf(1)
				break
			}
			x, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Config{}, fmt.Errorf("realloc: threshold %q: %v", val, err)
			}
			c.Threshold = x
		case "budget":
			n, err := strconv.Atoi(val)
			if err != nil {
				return Config{}, fmt.Errorf("realloc: budget %q: %v", val, err)
			}
			c.Budget = n
		case "hysteresis":
			n, err := strconv.Atoi(val)
			if err != nil {
				return Config{}, fmt.Errorf("realloc: hysteresis %q: %v", val, err)
			}
			c.Hysteresis = n
		case "payback":
			n, err := strconv.Atoi(val)
			if err != nil {
				return Config{}, fmt.Errorf("realloc: payback %q: %v", val, err)
			}
			c.Payback = n
		case "alpha":
			x, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Config{}, fmt.Errorf("realloc: alpha %q: %v", val, err)
			}
			c.Alpha = x
		case "gain":
			x, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Config{}, fmt.Errorf("realloc: gain %q: %v", val, err)
			}
			c.Gain = x
		default:
			return Config{}, fmt.Errorf("realloc: unknown clause %q", key)
		}
	}
	if c.Epoch == 0 {
		return Config{}, fmt.Errorf("realloc: missing epoch=N (required to enable)")
	}
	c = c.WithDefaults()
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// String renders the config back in the flag grammar (fixed clause
// order); "off" for the disabled zero value. String is a fixed point of
// Parse: Parse(c.String()) reproduces c for any valid enabled config.
func (c Config) String() string {
	if !c.Enabled() {
		return "off"
	}
	c = c.WithDefaults()
	th := strconv.FormatFloat(c.Threshold, 'g', -1, 64)
	if math.IsInf(c.Threshold, 1) {
		th = "inf"
	}
	return fmt.Sprintf("epoch=%d,threshold=%s,budget=%d,hysteresis=%d,payback=%d,alpha=%s,gain=%s",
		c.Epoch, th, c.Budget, c.Hysteresis, c.Payback,
		strconv.FormatFloat(c.Alpha, 'g', -1, 64), strconv.FormatFloat(c.Gain, 'g', -1, 64))
}
