package harness

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"affinityalloc/internal/core"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/trace"
	"affinityalloc/internal/workloads"
)

// runWorkloadExp runs `affsim -workload name` at tiny scale through
// RunAll with recording on and returns the rendered stream and the
// encoded trace.
func runWorkloadExp(t *testing.T, name string, jobs int) ([]byte, []byte) {
	t.Helper()
	opt := Options{Scale: Tiny, Seed: 1, Jobs: jobs, Record: trace.NewCollector()}
	e, err := WorkloadExperiment(opt, name, "all", core.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := RunAll(opt, []Experiment{e}, &out, nil, false, nil); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), trace.Encode(opt.Record.Trace())
}

// The workload experiment renders and records byte-identically for any
// worker count, one scenario per mode labeled "<workload>/<mode>".
func TestWorkloadExperimentByteIdenticalAcrossJobs(t *testing.T) {
	fig1, tr1 := runWorkloadExp(t, "hotspot", 1)
	fig8, tr8 := runWorkloadExp(t, "hotspot", 8)
	if !bytes.Equal(fig1, fig8) {
		t.Errorf("figure differs between -j 1 and -j 8:\n--- j=1 ---\n%s--- j=8 ---\n%s", fig1, fig8)
	}
	if !bytes.Equal(tr1, tr8) {
		t.Error("recorded trace differs between -j 1 and -j 8")
	}
	if !bytes.HasPrefix(fig1, []byte("### workload — hotspot\n")) {
		t.Errorf("figure header: %q", strings.SplitN(string(fig1), "\n", 2)[0])
	}
	tr, err := trace.Decode(tr1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Scenarios) != len(sys.Modes) {
		t.Fatalf("%d scenarios recorded, want %d", len(tr.Scenarios), len(sys.Modes))
	}
	for i, mode := range sys.Modes {
		if want := "hotspot/" + mode.String(); tr.Scenarios[i].Label != want {
			t.Errorf("scenario %d labeled %q, want %q", i, tr.Scenarios[i].Label, want)
		}
	}
}

// panicsUnder wraps a workload so that its run panics under one mode.
type panicsUnder struct {
	workloads.Workload
	mode sys.Mode
}

func (w panicsUnder) Run(s *sys.System, mode sys.Mode) (workloads.Result, error) {
	if mode == w.mode {
		panic("simulated crash")
	}
	return w.Workload.Run(s, mode)
}

// A mode that panics renders a FAILED row and comes back as
// *CellFailures together with the figure. The speedup column is
// relative to In-Core, so with In-Core failed it reads n/a rather than
// a ratio to another mode.
func TestWorkloadFailedModeRendersFailedRow(t *testing.T) {
	opt := Options{Scale: Tiny, Seed: 1, Jobs: 2}
	w := panicsUnder{workloads.VecAdd{N: 1 << 10, ForceDelta: -1}, sys.InCore}
	fig, err := workloadFigure(opt, w, sys.Modes[:], core.DefaultPolicy())
	var fails *CellFailures
	if !errors.As(err, &fails) || len(fails.Cells) != 1 || fails.Cells[0].Label != "vecadd/In-Core" {
		t.Fatalf("error %v, want one *CellFailures cell vecadd/In-Core", err)
	}
	if fig == nil {
		t.Fatal("no figure returned with the failure")
	}
	rows := map[string][]string{}
	for _, r := range fig.Tables[0].Rows() {
		rows[r[0]] = r
	}
	if r := rows["In-Core"]; r == nil || r[1] != "FAILED" {
		t.Errorf("In-Core row %q, want FAILED", r)
	}
	for _, mode := range []string{"Near-L3", "Aff-Alloc"} {
		if r := rows[mode]; r == nil || r[2] != "n/a" {
			t.Errorf("%s row %q, want speedup n/a", mode, r)
		}
	}
}

// With In-Core present the speedup column is In-Core cycles over each
// row's, so the In-Core row reads 1.000; a single mode is its own base.
func TestWorkloadSpeedupBase(t *testing.T) {
	opt := Options{Scale: Tiny, Seed: 1, Jobs: 2}
	w := workloads.VecAdd{N: 1 << 10, ForceDelta: -1}
	for _, c := range []struct {
		modes []sys.Mode
		col   string
	}{
		{sys.Modes[:], "speedup.vs.InCore"},
		{[]sys.Mode{sys.AffAlloc}, "speedup"},
	} {
		fig, err := workloadFigure(opt, w, c.modes, core.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		tbl := fig.Tables[0]
		if tbl.Headers[2] != c.col {
			t.Errorf("%v: speedup column %q, want %q", c.modes, tbl.Headers[2], c.col)
		}
		if got := tbl.Rows()[0][2]; got != "1.000" {
			t.Errorf("%v: base row speedup %q, want 1.000", c.modes, got)
		}
	}
}

// Every runnable name resolves, to the workload of that name; unknown
// names and modes are refused before anything runs.
func TestLookupWorkload(t *testing.T) {
	opt := Options{Scale: Tiny, Seed: 1}
	names := WorkloadNames(opt)
	if len(names) != 11 || names[len(names)-1] != "skew" {
		t.Fatalf("names %v, want Fig 12's ten then skew", names)
	}
	for _, name := range names {
		w, err := lookupWorkload(opt, name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if w.Name() != name {
			t.Errorf("lookup %s found %s", name, w.Name())
		}
	}
	if _, err := WorkloadExperiment(opt, "nope", "all", core.DefaultPolicy()); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("unknown workload: error %v", err)
	}
	if _, err := WorkloadExperiment(opt, "bfs", "fastest", core.DefaultPolicy()); err == nil {
		t.Error("unknown mode accepted")
	}
}

// Looking up an affine workload builds no graph: at paper scale the
// shared Kronecker graph alone is tens of MB, so staying under 1 MB
// means the lookup stopped at the affine group.
func TestLookupAffineBuildsNoGraph(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, err := lookupWorkload(Options{Scale: Paper, Seed: 1}, "hotspot")
	runtime.ReadMemStats(&after)
	if err != nil || w.Name() != "hotspot" {
		t.Fatalf("lookup: %v, %v", w, err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("looking up hotspot at paper scale allocated %d bytes, want < 1 MB", d)
	}
}

func TestSelect(t *testing.T) {
	all, err := Select()
	if err != nil || len(all) != len(Experiments()) {
		t.Fatalf("empty list: %d experiments, %v; want all %d", len(all), err, len(Experiments()))
	}
	sel, err := Select("t2", " fig4", "t2")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].ID != "fig4" || sel[1].ID != "t2" {
		t.Errorf("selected %v, want fig4 then t2 once each", sel)
	}
	_, err = Select("fig4", "fig99", "nope")
	if err == nil {
		t.Fatal("unknown ids accepted")
	}
	for _, id := range []string{`"fig99"`, `"nope"`} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not name %s", err, id)
		}
	}
	if strings.Contains(err.Error(), `"fig4"`) {
		t.Errorf("error %q names the known id fig4", err)
	}
}

// RunAll renders a figure that comes back with an error, writes the
// FAILED header only for an experiment with no figure, and returns the
// first error in selection order.
func TestRunAllRendersFigureReturnedWithError(t *testing.T) {
	exps := []Experiment{
		{ID: "partial", Run: func(Options) (*Figure, error) {
			return &Figure{ID: "partial", Title: "some cells failed"}, errors.New("cell boom")
		}},
		{ID: "none", Run: func(Options) (*Figure, error) { return nil, errors.New("no figure") }},
	}
	var out bytes.Buffer
	err := RunAll(Options{Jobs: 2}, exps, &out, nil, false, nil)
	if err == nil || !strings.Contains(err.Error(), "partial: cell boom") {
		t.Errorf("error %v, want the partial experiment's", err)
	}
	want := "### partial — some cells failed\n\n\n### none — FAILED: no figure\n\n"
	if out.String() != want {
		t.Errorf("rendered %q, want %q", out.String(), want)
	}
}
