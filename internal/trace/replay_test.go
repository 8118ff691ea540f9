package trace_test

import (
	"bytes"
	"fmt"
	"testing"

	"affinityalloc/internal/faults"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/trace"
	"affinityalloc/internal/workloads"
)

// recordUnder records one workload under a full configuration.
func recordUnder(t *testing.T, w workloads.Workload, mode sys.Mode, seed int64, faultSpec string) *trace.Scenario {
	t.Helper()
	cfg := sys.DefaultConfig()
	cfg.Seed = seed
	if faultSpec != "" {
		f, err := faults.Parse(faultSpec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = f
	}
	rec := trace.NewRecorder(w.Name())
	if _, err := workloads.RunTraced(cfg, w, mode, rec); err != nil {
		t.Fatalf("record %s: %v", w.Name(), err)
	}
	return rec.Scenario()
}

// withShardSlot returns sc as a trace written while scenario headers
// still named a kernel shard count would carry it: binary-encoded with
// n in the header's retired shard slot, then decoded again.
func withShardSlot(t *testing.T, sc *trace.Scenario, n int) *trace.Scenario {
	t.Helper()
	enc := trace.Encode(&trace.Trace{Scenarios: []*trace.Scenario{sc}})
	tr, err := trace.Decode(withShardSlots(t, enc, byte(n)))
	if err != nil {
		t.Fatalf("header with shards=%d: %v", n, err)
	}
	if len(tr.Scenarios) != 1 {
		t.Fatalf("header with shards=%d: %d scenarios, want 1", n, len(tr.Scenarios))
	}
	return tr.Scenarios[0]
}

// Record→replay placement identity: replaying a recorded scenario with
// zero options must re-drive the allocator through the identical state
// trajectory, yielding byte-identical placements — across workload
// shapes (affine, irregular, pointer), fault specs, and the shard count
// an older recording names in its header (1 from the CLI default, 4
// from a run sharded four ways), which replay ignores.
func TestReplayPlacementIdentity(t *testing.T) {
	workloadSet := []workloads.Workload{
		tinyVecAdd(),
		tinyHashJoin(),
		workloads.LinkList{Lists: 16, Nodes: 32, Queries: 1},
	}
	for _, w := range workloadSet {
		for _, fspec := range []string{"", "dead-banks=2"} {
			sc := recordUnder(t, w, sys.AffAlloc, 1, fspec)
			want := trace.RecordedDump(sc)
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/faults=%s/shards=%d", w.Name(), fspec, shards), func(t *testing.T) {
					for _, c := range []struct {
						name string
						sc   *trace.Scenario
					}{
						{"recorded", sc},
						{"legacy header", withShardSlot(t, sc, shards)},
					} {
						res, err := trace.Replay(c.sc, trace.Options{})
						if err != nil {
							t.Fatalf("%s: %v", c.name, err)
						}
						if got := res.PlacementDump(); !bytes.Equal(got, want) {
							t.Errorf("%s: placements diverged:\n--- replay\n%s--- recorded\n%s", c.name, got, want)
						}
					}
				})
			}
		}
	}
}

// A round trip through the encoding must not perturb replay.
func TestReplayAfterEncodeRoundTrip(t *testing.T) {
	sc := recordUnder(t, tinyHashJoin(), sys.AffAlloc, 1, "")
	want := trace.RecordedDump(sc)
	got, err := trace.Decode(trace.Encode(&trace.Trace{Scenarios: []*trace.Scenario{sc}}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.Replay(got.Scenarios[0], trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.PlacementDump(), want) {
		t.Error("decoded scenario replays differently")
	}
}

// Replay must accept a policy override and still produce a
// deterministic result (same override → same placements).
func TestReplayOverridesAreDeterministic(t *testing.T) {
	sc := recordUnder(t, tinyHashJoin(), sys.AffAlloc, 1, "")
	opts := []trace.Options{
		{Policy: "minhop"},
		{Policy: "rnd"},
	}
	for _, opt := range opts {
		a, err := trace.Replay(sc, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		b, err := trace.Replay(sc, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if !bytes.Equal(a.PlacementDump(), b.PlacementDump()) {
			t.Errorf("%+v: replay is not deterministic", opt)
		}
		if a.Cycles != b.Cycles {
			t.Errorf("%+v: cycles differ: %d vs %d", opt, a.Cycles, b.Cycles)
		}
	}
}

// The shard count an older recording names in its header must stay
// inert: placements and cycle counts are byte-identical to replaying
// the scenario without one, whatever count the header names.
func TestReplayShardInvariance(t *testing.T) {
	sc := recordUnder(t, tinyVecAdd(), sys.AffAlloc, 1, "")
	base, err := trace.Replay(sc, trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		r, err := trace.Replay(withShardSlot(t, sc, shards), trace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.PlacementDump(), base.PlacementDump()) {
			t.Errorf("shards=%d: placements diverged from the headerless scenario", shards)
		}
		if r.Cycles != base.Cycles {
			t.Errorf("shards=%d: cycles %d != %d", shards, r.Cycles, base.Cycles)
		}
	}
}
