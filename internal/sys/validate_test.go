package sys

import (
	"errors"
	"strings"
	"testing"

	"affinityalloc/internal/core"
	"affinityalloc/internal/topo"
)

// TestConfigValidate drives every rejection branch with a broken copy of
// the default config and checks the message names the offending field —
// the errors exist to be actionable, not just non-nil.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantSub string
	}{
		{"zero mesh width", func(c *Config) { c.MeshW = 0 }, "mesh"},
		{"negative mesh height", func(c *Config) { c.MeshH = -4 }, "mesh"},
		{"quadrant non-square", func(c *Config) { c.Numbering = topo.Quadrant; c.MeshW = 8; c.MeshH = 4 }, "quadrant"},
		{"quadrant non-pow2", func(c *Config) { c.Numbering = topo.Quadrant; c.MeshW = 6; c.MeshH = 6 }, "quadrant"},
		{"zero L3 bank size", func(c *Config) { c.MemSys.BankSizeBytes = 0 }, "bank size"},
		{"zero L3 ways", func(c *Config) { c.MemSys.BankWays = 0 }, "associativity"},
		{"L3 size not divisible", func(c *Config) { c.MemSys.BankSizeBytes = 1<<20 + 64 }, "divisible"},
		{"L3 sets not pow2", func(c *Config) { c.MemSys.BankSizeBytes = 3 << 19 }, "power of two"},
		{"zero L1 size", func(c *Config) { c.Core.L1SizeBytes = 0 }, "L1"},
		{"L2 size not divisible", func(c *Config) { c.Core.L2SizeBytes = 100 }, "L2"},
		{"bad policy", func(c *Config) { c.Policy.Policy = core.Policy(99) }, "policy"},
		{"negative H", func(c *Config) { c.Policy.H = -1 }, "H="},
		{"negative link bytes", func(c *Config) { c.NoC.LinkBytes = -1 }, "NoC"},
		{"negative SIMD lanes", func(c *Config) { c.Stream.SIMDLanes = -2 }, "stream"},
		{"SMT threads overflow a window count", func(c *Config) { c.Stream.SMTThreads = maxSMTThreads + 1 }, "SMTThreads"},
		{"zero interleave", func(c *Config) { c.Mem.DefaultInterleave = 0 }, "interleave"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a broken config", tc.name)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.wantSub)) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
		if _, nerr := New(cfg); nerr == nil {
			t.Errorf("%s: New accepted what Validate rejects", tc.name)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Stream.SMTThreads = maxSMTThreads + 1
	if err := cfg.Validate(); !errors.Is(err, errTooManySMTThreads) {
		t.Errorf("SMTThreads=%d: Validate returned %v, want errTooManySMTThreads", cfg.Stream.SMTThreads, err)
	}
	cfg.Stream.SMTThreads = maxSMTThreads
	if err := cfg.Validate(); err != nil {
		t.Errorf("SMTThreads=%d (the largest a window counts) rejected: %v", cfg.Stream.SMTThreads, err)
	}
}

func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range Modes {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for in, want := range map[string]Mode{
		"incore": InCore, "IN_CORE": InCore, "near-l3": NearL3,
		"NearL3": NearL3, "affalloc": AffAlloc, "Aff Alloc": AffAlloc,
	} {
		if got, err := ParseMode(in); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("warp-drive"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}

// TestParseModeAllocs pins that ParseMode does not build its separator
// Replacer per call; it runs on every wire placement that names a mode
// and on every replayed journal record.
func TestParseModeAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseMode("Aff-Alloc"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("ParseMode(%q) allocated %.0f times, want at most 3", "Aff-Alloc", allocs)
	}
}

func TestModeTextMarshal(t *testing.T) {
	for _, m := range Modes {
		b, err := m.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Mode
		if err := back.UnmarshalText(b); err != nil || back != m {
			t.Errorf("text round trip of %v gave %v, %v", m, back, err)
		}
	}
	if _, err := Mode(42).MarshalText(); err == nil {
		t.Error("MarshalText accepted an invalid mode")
	}
}
