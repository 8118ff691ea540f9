package trace_test

import (
	"bytes"
	"testing"

	"affinityalloc/internal/sys"
	"affinityalloc/internal/trace"
)

// Composition must be deterministic: same inputs and seed, same bytes.
func TestComposeDeterministic(t *testing.T) {
	a := recordTiny(t, tinyVecAdd(), sys.AffAlloc, 1)
	b := recordTiny(t, tinyHashJoin(), sys.AffAlloc, 1)
	opt := trace.ComposeOptions{Seed: 7, Churn: 1}
	c1, err := trace.Compose([]*trace.Scenario{a, b}, opt)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := trace.Compose([]*trace.Scenario{a, b}, opt)
	if err != nil {
		t.Fatal(err)
	}
	e1 := trace.Encode(&trace.Trace{Scenarios: []*trace.Scenario{c1}})
	e2 := trace.Encode(&trace.Trace{Scenarios: []*trace.Scenario{c2}})
	if !bytes.Equal(e1, e2) {
		t.Error("same seed composed differently")
	}
	c3, err := trace.Compose([]*trace.Scenario{a, b}, trace.ComposeOptions{Seed: 8, Churn: 1})
	if err != nil {
		t.Fatal(err)
	}
	e3 := trace.Encode(&trace.Trace{Scenarios: []*trace.Scenario{c3}})
	if bytes.Equal(e1, e3) {
		t.Error("different seeds composed identically (interleave not seeded?)")
	}
}

// A composed scenario must preserve each tenant's event order and
// validate (symbolic refs stay resolvable), and replay cleanly.
func TestComposeStructureAndReplay(t *testing.T) {
	a := recordTiny(t, tinyVecAdd(), sys.AffAlloc, 1)
	b := recordTiny(t, tinyHashJoin(), sys.AffAlloc, 1)
	churn := 1
	c, err := trace.Compose([]*trace.Scenario{a, b}, trace.ComposeOptions{Seed: 3, Churn: churn})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.NumTenants(), 2; got != want {
		t.Fatalf("NumTenants = %d, want %d", got, want)
	}
	if got := len(c.Events); got <= len(a.Events)+len(b.Events) {
		t.Errorf("churned composition has %d events, want > %d", got, len(a.Events)+len(b.Events))
	}
	// Per-tenant subsequences must repeat each input 1+churn times plus
	// injected frees; count allocation events per tenant.
	wantAllocs := []int64{a.AllocCount(0) * int64(1+churn), b.AllocCount(0) * int64(1+churn)}
	for tenant, want := range wantAllocs {
		if got := c.AllocCount(tenant); got != want {
			t.Errorf("tenant %d: %d alloc events, want %d", tenant, got, want)
		}
	}
	res, err := trace.Replay(c, trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 2 {
		t.Fatalf("replayed %d tenants, want 2", len(res.Tenants))
	}
	for i, tr := range res.Tenants {
		if tr.Accesses == 0 {
			t.Errorf("tenant %d (%s) replayed no accesses", i, tr.Label)
		}
		if tr.Cycles == 0 {
			t.Errorf("tenant %d (%s) has zero-cycle horizon", i, tr.Label)
		}
	}
	// Replaying the same composition twice is deterministic.
	res2, err := trace.Replay(c, trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.PlacementDump(), res2.PlacementDump()) || res.Cycles != res2.Cycles {
		t.Error("composed replay is not deterministic")
	}
}

// Composing an already-composed scenario is rejected.
func TestComposeRejectsMultiTenantInput(t *testing.T) {
	a := recordTiny(t, tinyVecAdd(), sys.AffAlloc, 1)
	c, err := trace.Compose([]*trace.Scenario{a, trace.NoisyNeighbor(trace.NoiseSpec{})}, trace.ComposeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Compose([]*trace.Scenario{c, a}, trace.ComposeOptions{Seed: 1}); err == nil {
		t.Error("composing a multi-tenant scenario should fail")
	}
}

// The synthetic noisy neighbor is valid, deterministic, and replayable
// both solo and composed with a recorded tenant under faults.
func TestNoisyNeighbor(t *testing.T) {
	n1 := trace.NoisyNeighbor(trace.NoiseSpec{Seed: 5})
	n2 := trace.NoisyNeighbor(trace.NoiseSpec{Seed: 5})
	e1 := trace.Encode(&trace.Trace{Scenarios: []*trace.Scenario{n1}})
	e2 := trace.Encode(&trace.Trace{Scenarios: []*trace.Scenario{n2}})
	if !bytes.Equal(e1, e2) {
		t.Error("noisy neighbor is not deterministic")
	}
	if err := n1.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Replay(n1, trace.Options{}); err != nil {
		t.Fatalf("solo replay: %v", err)
	}
	a := recordTiny(t, tinyVecAdd(), sys.AffAlloc, 1)
	c, err := trace.Compose([]*trace.Scenario{a, n1}, trace.ComposeOptions{Seed: 2, Churn: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Replay(c, trace.Options{Faults: "dead-banks=2"}); err != nil {
		t.Fatalf("faulted colocation replay: %v", err)
	}
}
