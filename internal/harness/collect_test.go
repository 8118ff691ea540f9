package harness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"affinityalloc/internal/core"
	"affinityalloc/internal/faults"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/telemetry"
	"affinityalloc/internal/workloads"
)

// runArtifacts regenerates fig4 with the given worker count, capturing
// the metrics document and trace alongside the figure stream.
func runArtifacts(t *testing.T, jobs int) (figs, metrics, trace string) {
	t.Helper()
	var figBuf, metBuf, trBuf bytes.Buffer
	arts := &Artifacts{MetricsOut: &metBuf, TraceOut: &trBuf, Experiment: "fig4", Scale: Tiny, Seed: 1}
	err := RunAll(Options{Scale: Tiny, Seed: 1, Jobs: jobs}, &figBuf,
		map[string]bool{"fig4": true}, nil, false, arts)
	if err != nil {
		t.Fatal(err)
	}
	return figBuf.String(), metBuf.String(), trBuf.String()
}

// TestMetricsDocByteIdenticalAcrossJobs is the acceptance property of
// the telemetry pipeline: the -metrics-out and -trace-out byte streams
// are identical between a serial and an 8-way parallel run.
func TestMetricsDocByteIdenticalAcrossJobs(t *testing.T) {
	figs1, met1, tr1 := runArtifacts(t, 1)
	figs8, met8, tr8 := runArtifacts(t, 8)
	if figs1 != figs8 {
		t.Error("figure stream differs between -j 1 and -j 8")
	}
	if met1 != met8 {
		t.Errorf("metrics document differs between -j 1 and -j 8:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", met1, met8)
	}
	if tr1 != tr8 {
		t.Error("trace export differs between -j 1 and -j 8")
	}

	doc, err := telemetry.ParseDocument([]byte(met1))
	if err != nil {
		t.Fatalf("emitted document fails its own validation: %v", err)
	}
	if doc.Experiment != "fig4" || doc.Scale != "tiny" {
		t.Errorf("document header = %q/%q", doc.Experiment, doc.Scale)
	}
	for _, c := range doc.Cells {
		if !strings.HasPrefix(c.Label, "fig4/") {
			t.Errorf("cell label %q not prefixed with its experiment", c.Label)
		}
		if len(c.Series["l3_bank_accesses"]) == 0 {
			t.Errorf("cell %q has no per-bank breakdown", c.Label)
		}
		if len(c.Series["noc_link_flits"]) == 0 {
			t.Errorf("cell %q has no per-link breakdown", c.Label)
		}
	}
}

// TestShardedHarnessByteIdentical pins fig4 end to end while the
// harness shards its cells across workers: the rendered figure, the
// metrics document and the Chrome trace must be byte-identical between
// -j1 and -j8, on clean and faulted machines.
func TestShardedHarnessByteIdentical(t *testing.T) {
	render := func(jobs int, spec faults.Spec) (fig, metrics, trace string) {
		var collect Collector
		opt := Options{Scale: Tiny, Seed: 1, Jobs: jobs, Faults: spec, Collect: &collect}
		f, err := Fig4(opt)
		if err != nil {
			t.Fatal(err)
		}
		var figBuf bytes.Buffer
		f.Render(&figBuf)
		var metricsBuf, traceBuf bytes.Buffer
		arts := &Artifacts{MetricsOut: &metricsBuf, TraceOut: &traceBuf,
			Experiment: "fig4", Scale: Tiny, Seed: 1}
		if err := arts.Write(collect.Cells()); err != nil {
			t.Fatal(err)
		}
		return figBuf.String(), metricsBuf.String(), traceBuf.String()
	}

	specs := map[string]faults.Spec{
		"clean":   {},
		"faulted": {Seed: 1, NDeadBanks: 1, NDeadLinks: 1, DRAM: []faults.DRAMFault{{Chan: 0, LatencyX: 2}}},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			baseFig, baseMetrics, baseTrace := render(1, spec)
			fig, metrics, trace := render(8, spec)
			if fig != baseFig {
				t.Error("figure differs between -j1 and -j8")
			}
			if metrics != baseMetrics {
				t.Error("metrics document differs between -j1 and -j8")
			}
			if trace != baseTrace {
				t.Error("trace differs between -j1 and -j8")
			}
		})
	}
}

// TestCollectorOrderIndependentOfScheduling: slots are reserved in call
// order and filled by label, so Cells() order never depends on which
// worker finished first.
func TestCollectorOrderIndependentOfScheduling(t *testing.T) {
	build := func(jobs int) []CollectedCell {
		col := &Collector{}
		opt := Options{Scale: Tiny, Seed: 1, Jobs: jobs, Collect: col}
		cfg := baseConfig(opt, core.DefaultPolicy())
		cells := make([]cell, 8)
		for i := range cells {
			cells[i] = cell{fmt.Sprintf("vecadd/Δ%d", i), cfg, workloads.VecAdd{N: 1 << 9, ForceDelta: i}, sys.AffAlloc}
		}
		if _, err := runCells(opt, cells); err != nil {
			t.Fatal(err)
		}
		return col.Cells()
	}
	serial := build(1)
	parallel := build(8)
	if len(serial) != 8 || len(parallel) != 8 {
		t.Fatalf("collected %d/%d cells, want 8", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Label != parallel[i].Label {
			t.Errorf("slot %d: %q (serial) vs %q (parallel)", i, serial[i].Label, parallel[i].Label)
		}
		if serial[i].Snap.Scalar("cycles") != parallel[i].Snap.Scalar("cycles") {
			t.Errorf("slot %d: snapshots differ across scheduling", i)
		}
	}
}

// TestCollectorSkipsFailedCells: a failing cell leaves no snapshot and
// is dropped from the collected set instead of emitting an empty cell.
func TestCollectorSkipsFailedCells(t *testing.T) {
	col := &Collector{}
	opt := Options{Jobs: 2, Collect: col}
	cells := []cell{
		{"ok", baseConfig(Options{Scale: Tiny, Seed: 1}, core.DefaultPolicy()), workloads.VecAdd{N: 1 << 9, ForceDelta: 0}, sys.AffAlloc},
		failCell("bad", errors.New("boom")),
	}
	if _, err := runCells(opt, cells); err == nil {
		t.Fatal("expected the failing cell's error")
	}
	got := col.Cells()
	if len(got) != 1 || got[0].Label != "ok" {
		t.Errorf("collected %+v, want only the ok cell", got)
	}
}
