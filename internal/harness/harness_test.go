package harness

import (
	"bytes"
	"testing"

	"affinityalloc/internal/trace"
)

// TestAllExperimentsTiny runs every registered experiment at tiny scale,
// checking they complete and render.
func TestAllExperimentsTiny(t *testing.T) {
	opt := Options{Scale: Tiny, Seed: 1}
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			fig, err := e.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			fig.Render(&buf)
			if buf.Len() == 0 {
				t.Error("empty render")
			}
			if len(fig.Tables) == 0 {
				t.Error("no tables")
			}
		})
	}
}

// TestEveryExperimentRunsThroughRunCells: every experiment that simulates
// does so through runCells, so each of its cells shows up in both Timing
// and Collect; the tables and fig17 simulate nothing. Fig 14 and Fig 18
// also record every cell, and each recording replays to the placements
// it recorded. The other figures run unrecorded because recording fig13
// alone peaks near 2 GB; they record on the same runCells path.
func TestEveryExperimentRunsThroughRunCells(t *testing.T) {
	noSim := map[string]bool{"t2": true, "t3": true, "t4": true, "fig17": true}
	exact := map[string]int{"fig14": 3, "fig18": 9}
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			want, recorded := exact[e.ID]
			timing, collect := &Timing{}, &Collector{}
			opt := Options{Scale: Tiny, Seed: 1, Timing: timing, Collect: collect}
			if recorded {
				opt.Record = trace.NewCollector()
			}
			if _, err := e.Run(opt); err != nil {
				t.Fatal(err)
			}
			n, _, _ := timing.Summary()
			if got := len(collect.Cells()); got != n {
				t.Fatalf("%d timed cells, %d collected; want equal", n, got)
			}
			switch {
			case noSim[e.ID] && n != 0:
				t.Fatalf("%d cells, want none", n)
			case !noSim[e.ID] && n == 0:
				t.Fatal("no cell ran through runCells")
			case !recorded:
				return
			case n != want:
				t.Fatalf("%d cells, want %d", n, want)
			}
			scs := opt.Record.Trace().Scenarios
			if len(scs) != n {
				t.Fatalf("%d cells recorded, want %d", len(scs), n)
			}
			for _, sc := range scs {
				res, err := trace.Replay(sc, trace.Options{})
				if err != nil {
					t.Fatalf("replay %s: %v", sc.Label, err)
				}
				if got, want := res.PlacementDump(), trace.RecordedDump(sc); !bytes.Equal(got, want) {
					t.Errorf("%s: replay diverged from recording:\n--- replay\n%s--- recorded\n%s", sc.Label, got, want)
				}
			}
		})
	}
}

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
