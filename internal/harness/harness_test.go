package harness

import "testing"

func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Scale
		ok   bool
	}{
		{"tiny", Tiny, true}, {"default", Default, true}, {"", Default, true},
		{"paper", Paper, true}, {"huge", 0, false},
	} {
		got, err := ParseScale(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseScale(%q) = %v, %v", c.in, got, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseScale(%q) accepted", c.in)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig12"); !ok {
		t.Error("fig12 missing")
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("fig99 found")
	}
}

// TestWorkloadSetsPerScale checks each scale builds a complete workload
// set with unique names.
func TestWorkloadSetsPerScale(t *testing.T) {
	for _, scale := range []Scale{Tiny, Default, Paper} {
		ws := AllWorkloads(Options{Scale: scale, Seed: 1})
		if len(ws) != 10 {
			t.Errorf("%v: %d workloads, want 10", scale, len(ws))
		}
		seen := map[string]bool{}
		for _, w := range ws {
			if seen[w.Name()] {
				t.Errorf("%v: duplicate workload %s", scale, w.Name())
			}
			seen[w.Name()] = true
		}
	}
}
