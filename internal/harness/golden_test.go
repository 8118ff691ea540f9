package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"affinityalloc/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden_test.go's committed reports")

const goldenTinyPath = "testdata/golden_tiny_report.txt"

// tinyRun is one tiny-scale run of every registered experiment, shared by
// the three tests below so Tier-1 pays for the run once: the whole
// rendered report is pinned byte-for-byte, and the same run's per-cell
// Timing, Collect and Record accounting is checked per experiment.
var tinyRun struct {
	once   sync.Once
	report []byte
	exps   []tinyExp
}

// tinyExp is one experiment's share of tinyRun.
type tinyExp struct {
	id      string
	fig     *Figure
	err     error
	render  []byte
	timing  *Timing
	collect *Collector
	record  *trace.Collector
}

// recordedTiny lists the experiments tinyRun records, with the number of
// cells each must run. The other figures run unrecorded because recording
// fig13 alone peaks near 2 GB; they record on the same runCells path.
var recordedTiny = map[string]int{"fig14": 3, "fig18": 9}

// runTiny runs every experiment once at tiny scale and seed 1, four cells
// at a time, and renders the report as RunAll does: each experiment's
// figure in registry order. A failed experiment renders nothing and
// fails TestAllExperimentsTiny.
func runTiny() ([]byte, []tinyExp) {
	tinyRun.once.Do(func() {
		opt := Options{Scale: Tiny, Seed: 1, Jobs: 4}.ShareWorkers()
		all := Experiments()
		exps := make([]tinyExp, len(all))
		var wg sync.WaitGroup
		for i, e := range all {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := &exps[i]
				x.id, x.timing, x.collect = e.ID, &Timing{}, &Collector{}
				o := opt
				o.Timing, o.Collect = x.timing, x.collect
				if _, ok := recordedTiny[e.ID]; ok {
					x.record = trace.NewCollector()
					o.Record = x.record
				}
				if x.fig, x.err = e.Run(o); x.err == nil {
					var buf bytes.Buffer
					x.fig.Render(&buf)
					x.render = buf.Bytes()
				}
			}()
		}
		wg.Wait()
		var report []byte
		for _, x := range exps {
			report = append(report, x.render...)
		}
		tinyRun.report, tinyRun.exps = report, exps
	})
	return tinyRun.report, tinyRun.exps
}

// TestGoldenTinyReport byte-compares the whole tiny-scale report — every
// experiment — against the committed golden file. Any change to
// simulation behavior — timing model, placement policy, counter
// accounting, rendering — shows up here as a diff. To bless an
// intentional change:
//
//	go test ./internal/harness -run TestGoldenTinyReport -update
func TestGoldenTinyReport(t *testing.T) {
	got, _ := runTiny()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenTinyPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTinyPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenTinyPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenTinyPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("tiny report diverged from %s (len got %d, want %d); "+
			"if the change is intentional, re-bless with -update.\nfirst divergence near: %s",
			goldenTinyPath, len(got), len(want), firstDiff(got, want))
	}
}

// TestAllExperimentsTiny checks, on the shared tiny run, that every
// registered experiment completes and renders at least one table.
func TestAllExperimentsTiny(t *testing.T) {
	_, exps := runTiny()
	for _, x := range exps {
		t.Run(x.id, func(t *testing.T) {
			if x.err != nil {
				t.Fatal(x.err)
			}
			if len(x.render) == 0 {
				t.Error("empty render")
			}
			if len(x.fig.Tables) == 0 {
				t.Error("no tables")
			}
		})
	}
}

// TestEveryExperimentRunsThroughRunCells: on the shared tiny run, every
// experiment that simulates does so through runCells, so each of its
// cells shows up in both Timing and Collect; the tables and fig17
// simulate nothing. Fig 14 and Fig 18 also record every cell, and each
// recording replays to the placements it recorded.
func TestEveryExperimentRunsThroughRunCells(t *testing.T) {
	noSim := map[string]bool{"t2": true, "t3": true, "t4": true, "fig17": true}
	_, exps := runTiny()
	for _, x := range exps {
		t.Run(x.id, func(t *testing.T) {
			if x.err != nil {
				t.Fatal(x.err)
			}
			want, recorded := recordedTiny[x.id]
			n, _, _ := x.timing.Summary()
			if got := len(x.collect.Cells()); got != n {
				t.Fatalf("%d timed cells, %d collected; want equal", n, got)
			}
			switch {
			case noSim[x.id] && n != 0:
				t.Fatalf("%d cells, want none", n)
			case !noSim[x.id] && n == 0:
				t.Fatal("no cell ran through runCells")
			case !recorded:
				return
			case n != want:
				t.Fatalf("%d cells, want %d", n, want)
			}
			scs := x.record.Trace().Scenarios
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

// firstDiff returns a short window around the first differing byte.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := i - 60
	if lo < 0 {
		lo = 0
	}
	hi := i + 60
	window := func(s []byte) string {
		h := hi
		if h > len(s) {
			h = len(s)
		}
		if lo >= h {
			return ""
		}
		return string(s[lo:h])
	}
	return "got ..." + window(a) + "... want ..." + window(b) + "..."
}
