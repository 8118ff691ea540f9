package affinityd

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"affinityalloc/internal/sys"
	"affinityalloc/internal/trace"
	"affinityalloc/internal/workloads"
)

// TestStreamGenDeterminism pins the property every differential in this
// package builds on: the same (seed, stream) pair always generates the
// identical request sequence, and distinct pairs diverge.
func TestStreamGenDeterminism(t *testing.T) {
	cases := []struct {
		seed   int64
		stream int
		batch  int
	}{
		{seed: 1, stream: 0, batch: 16},
		{seed: 1, stream: 3, batch: 16},
		{seed: 42, stream: 0, batch: 7},
		{seed: 42, stream: 7, batch: 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("seed%d_stream%d_batch%d", tc.seed, tc.stream, tc.batch), func(t *testing.T) {
			a := StreamSteps(tc.seed, tc.stream, 96, tc.batch)
			b := StreamSteps(tc.seed, tc.stream, 96, tc.batch)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same (seed, stream) produced different op streams")
			}
		})
	}
	if reflect.DeepEqual(StreamSteps(1, 0, 64, 16), StreamSteps(2, 0, 64, 16)) {
		t.Fatal("different seeds produced the identical op stream")
	}
	if reflect.DeepEqual(StreamSteps(1, 0, 64, 16), StreamSteps(1, 1, 64, 16)) {
		t.Fatal("different streams produced the identical op stream")
	}
}

// TestScenarioFromStreamRoundTrip lowers a stream to a trace scenario,
// round-trips it through the trace encoding, and checks that the
// re-lifted wire steps are identical — record/replay does not perturb
// the op stream.
func TestScenarioFromStreamRoundTrip(t *testing.T) {
	sc, err := ScenarioFromStream(MachineSpec{Seed: 7}, 7, 2, 96, 16)
	if err != nil {
		t.Fatal(err)
	}
	if n := sc.AllocCount(0); n != 96 {
		t.Fatalf("scenario has %d allocations, want 96", n)
	}
	steps, err := StepsFromScenario(sc, 16)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("binary", func(t *testing.T) {
		tr, err := trace.Decode(trace.Encode(&trace.Trace{Scenarios: []*trace.Scenario{sc}}))
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Scenarios) != 1 {
			t.Fatalf("decoded %d scenarios, want 1", len(tr.Scenarios))
		}
		again, err := StepsFromScenario(tr.Scenarios[0], 16)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(steps, again) {
			t.Fatal("wire steps changed across the encode/decode round trip")
		}
	})
}

// TestStepsFromScenarioRejects covers the lowering's hard edges:
// multi-tenant compositions, forced-bank ops and affinity edges into the
// middle of an allocation have no wire form.
func TestStepsFromScenarioRejects(t *testing.T) {
	a, err := ScenarioFromStream(MachineSpec{}, 1, 0, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScenarioFromStream(MachineSpec{}, 1, 1, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := trace.Compose([]*trace.Scenario{a, b}, trace.ComposeOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StepsFromScenario(multi, 16); err == nil {
		t.Fatal("multi-tenant scenario lowered without error")
	}

	forced := &trace.Scenario{
		Label: "forced", Mode: sys.AffAlloc.String(),
		Events: []trace.Event{
			{Kind: trace.KindAlloc, Op: trace.OpAffineBank, ElemSize: 4, NumElem: 64, Bank: 3},
		},
	}
	if _, err := StepsFromScenario(forced, 16); !errors.Is(err, ErrNotWireExpressible) {
		t.Fatalf("forced-bank op lowered with error %v, want ErrNotWireExpressible", err)
	}

	offset := &trace.Scenario{
		Label: "offset", Mode: sys.AffAlloc.String(),
		Events: []trace.Event{
			{Kind: trace.KindAlloc, Op: trace.OpNear, Size: 64},
			{Kind: trace.KindAlloc, Op: trace.OpNear, Size: 64, Affinity: []trace.Ref{{Ref: 1, Elem: -1, Off: 8}}},
		},
	}
	if _, err := StepsFromScenario(offset, 16); !errors.Is(err, ErrNotWireExpressible) {
		t.Fatalf("byte-offset near edge lowered with error %v, want ErrNotWireExpressible", err)
	}
}

// driveBridgeSteps pushes lowered trace steps at a registered machine
// and returns the wire placements keyed by request ID (the test-side
// twin of affload -trace's driver).
func driveBridgeSteps(t *testing.T, client *Client, machineID string, steps []TraceStep) map[string]Placement {
	t.Helper()
	wire := make(map[string]Placement)
	for _, stp := range steps {
		for _, il := range stp.Pools {
			if _, err := client.OpenPool(bg, machineID, il); err != nil {
				t.Fatal(err)
			}
		}
		if len(stp.Allocs) > 0 {
			resp, err := client.Alloc(bg, machineID, stp.AllocBatch, stp.Allocs)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range resp.Placements {
				wire[p.ID] = p
			}
		}
		if len(stp.Frees) > 0 {
			if _, err := client.Free(bg, machineID, stp.FreeBatch, stp.Frees); err != nil {
				t.Fatal(err)
			}
		}
	}
	return wire
}

// requireTraceMatch drives sc against a fresh wire machine and requires
// the daemon's placements to match the local replay exactly.
func requireTraceMatch(t *testing.T, client *Client, sc *trace.Scenario) {
	t.Helper()
	steps, err := StepsFromScenario(sc, 16)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := client.Register(bg, MachineSpec{
		MeshW: sc.MeshW, MeshH: sc.MeshH, Seed: sc.Seed,
		Policy: sc.Policy, Faults: sc.Faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Deregister(bg, reg.MachineID)
	wire := driveBridgeSteps(t, client, reg.MachineID, steps)

	res, err := trace.Replay(sc, trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := DiffReplay(sc, res, wire)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Errorf("%s: %s", sc.Label, d)
	}
	if len(wire) == 0 {
		t.Fatal("no placement made it to the wire")
	}
}

// TestTraceDrivenWireMatchesReplay is the trace-driven wire≡library
// differential: a seeded tenant stream lowered to a scenario and driven
// through a live server must place byte-identically to the local replay
// engine — including the near, baseline-mode and AlignTo edge cases the
// generator mixes in, and under a degraded machine.
func TestTraceDrivenWireMatchesReplay(t *testing.T) {
	_, client := newTestServer(t)
	for _, tc := range []struct {
		name   string
		spec   MachineSpec
		stream int
	}{
		{name: "default", spec: MachineSpec{Seed: 7}, stream: 0},
		{name: "policy_rnd", spec: MachineSpec{Seed: 11, Policy: "rnd"}, stream: 1},
		{name: "faulted", spec: MachineSpec{Seed: 3, Faults: "dead-banks=2"}, stream: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := ScenarioFromStream(tc.spec, tc.spec.Seed, tc.stream, 128, 16)
			if err != nil {
				t.Fatal(err)
			}
			requireTraceMatch(t, client, sc)
		})
	}
}

// TestRecordedWorkloadWireMatchesReplay closes the loop with real
// recorded workloads: a trace recorded from the simulator (what affsim
// -record writes) replays against a live daemon placement-identically.
// The linked structures hint each node at its predecessor, a near chunk,
// so they pin the wire's near-to-near edges.
func TestRecordedWorkloadWireMatchesReplay(t *testing.T) {
	_, client := newTestServer(t)
	for _, w := range []workloads.Workload{
		workloads.VecAdd{N: 1 << 12, ForceDelta: -1},
		workloads.LinkList{Lists: 16, Nodes: 32, Queries: 1},
		workloads.HashJoin{BuildRows: 1 << 9, ProbeRows: 1 << 10, Buckets: 1 << 7, HitRate: 0.25},
		workloads.BinTree{Keys: 1 << 9, Lookups: 1 << 10},
	} {
		t.Run(w.Name(), func(t *testing.T) {
			cfg := sys.DefaultConfig()
			cfg.Seed = 5
			rec := trace.NewRecorder(w.Name())
			if _, err := workloads.RunTraced(cfg, w, sys.AffAlloc, rec); err != nil {
				t.Fatal(err)
			}
			sc := rec.Scenario()
			if err := sc.Validate(); err != nil {
				t.Fatal(err)
			}
			requireTraceMatch(t, client, sc)
		})
	}
}

// TestDiffReplayFlagsDivergence makes sure the differential is not
// vacuous: a perturbed wire placement must be reported.
func TestDiffReplayFlagsDivergence(t *testing.T) {
	sc, err := ScenarioFromStream(MachineSpec{Seed: 7}, 7, 0, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.Replay(sc, trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wire := make(map[string]Placement, len(res.Placements))
	for _, p := range res.Placements {
		wp := Placement{
			ID: fmt.Sprintf("a%d", p.ID), Base: p.Base, Interleave: p.Interleave,
			ElemStride: p.Stride, StartBank: p.StartBank, PageMapped: p.PageMapped,
			Error: p.Err,
		}
		wire[wp.ID] = wp
	}
	diffs, err := DiffReplay(sc, res, wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("faithful wire copy reported diffs: %v", diffs)
	}

	mut := wire["a1"]
	mut.Base ^= 0x40
	wire["a1"] = mut
	diffs, err = DiffReplay(sc, res, wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 || !bytes.Contains([]byte(diffs[0]), []byte("a1")) {
		t.Fatalf("perturbed base not reported exactly once: %v", diffs)
	}
}
