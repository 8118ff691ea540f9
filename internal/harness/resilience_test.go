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
	"affinityalloc/internal/workloads"
)

// testWorkload is a Workload whose run is the function itself and
// simulates nothing, so a test can make a cell succeed, fail or panic on
// demand.
type testWorkload func() (workloads.Result, error)

func (testWorkload) Name() string { return "test" }

func (f testWorkload) Run(*sys.System, sys.Mode) (workloads.Result, error) { return f() }

// testCell runs fn as a cell on the default machine.
func testCell(label string, fn testWorkload) cell {
	return cell{label, baseConfig(Options{Seed: 1}, core.DefaultPolicy()), fn, sys.AffAlloc}
}

// okCell returns a cell that succeeds with a distinguishable checksum.
func okCell(label string, sum uint64) cell {
	return testCell(label, func() (workloads.Result, error) { return workloads.Result{Checksum: sum}, nil })
}

// failCell returns a cell whose workload fails with err.
func failCell(label string, err error) cell {
	return testCell(label, func() (workloads.Result, error) { return workloads.Result{}, err })
}

// A panicking cell must become its own per-cell failure while every
// sibling still completes and keeps its slot in the result order.
func TestRunCellsPanicYieldsPartialResults(t *testing.T) {
	cells := []cell{
		okCell("c0", 10),
		testCell("c1", func() (workloads.Result, error) { panic("simulated crash") }),
		okCell("c2", 20),
		okCell("c3", 30),
	}
	rs, err := runCells(Options{Jobs: 4}, cells)
	var fails *CellFailures
	if !errors.As(err, &fails) {
		t.Fatalf("err = %v, want *CellFailures", err)
	}
	if len(fails.Cells) != 1 || fails.Cells[0].Index != 1 || fails.Cells[0].Label != "c1" {
		t.Fatalf("failures %+v", fails.Cells)
	}
	if !strings.Contains(fails.Cells[0].Err.Error(), "cell panicked: simulated crash") {
		t.Fatalf("failure error %q", fails.Cells[0].Err)
	}
	if len(rs) != 4 {
		t.Fatalf("got %d results", len(rs))
	}
	for i, want := range map[int]uint64{0: 10, 2: 20, 3: 30} {
		if rs[i].Checksum != want {
			t.Errorf("cell %d checksum %d, want %d", i, rs[i].Checksum, want)
		}
	}
	if rs[1] != (workloads.Result{}) {
		t.Errorf("failed slot holds %+v, want the zero value", rs[1])
	}
}

func TestRunCellsAggregatesFailuresInInputOrder(t *testing.T) {
	_, err := runCells(Options{Jobs: 8}, []cell{
		okCell("c0", 1), failCell("c1", errors.New("c1 exploded")),
		okCell("c2", 2), failCell("c3", errors.New("c3 exploded")),
	})
	var fails *CellFailures
	if !errors.As(err, &fails) {
		t.Fatalf("err = %v", err)
	}
	if got := fails.Failed(); len(got) != 2 || got[0] != "c1" || got[1] != "c3" {
		t.Fatalf("failed labels %v", got)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "2 cells failed: c1: ") {
		t.Fatalf("aggregate message %q", msg)
	}
}

// A failing cell's error must reach errors.Is through the aggregate.
func TestRunCellsFailureUnwraps(t *testing.T) {
	sentinel := errors.New("deterministic failure")
	_, err := runCells(Options{Jobs: 1}, []cell{okCell("ok", 1), failCell("hard", fmt.Errorf("wrapped: %w", sentinel))})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want it to expose the cell's cause to errors.Is", err)
	}
}

// A faulted experiment must render byte-identically for every worker
// count: the injector is per-System and all fault randomness is seeded.
func TestFaultedFigureByteIdenticalAcrossJobs(t *testing.T) {
	spec := faults.Spec{Seed: 1, NDeadBanks: 2, NDeadLinks: 2,
		DRAM: []faults.DRAMFault{{Chan: 0, LatencyX: 2}}}
	render := func(jobs int) string {
		fig, err := Fig4(Options{Scale: Tiny, Seed: 1, Jobs: jobs, Faults: spec})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		fig.Render(&buf)
		return buf.String()
	}
	j1 := render(1)
	j8 := render(8)
	if j1 != j8 {
		t.Fatalf("faulted fig4 differs between -j1 and -j8:\n--- j1 ---\n%s\n--- j8 ---\n%s", j1, j8)
	}
}

// TestFaultedDeferredAccountingByteIdenticalAcrossJobs stresses the
// counters, updated inline and read only when a cell finishes, under a
// degraded machine: lossy links draw randomized retransmits (extra link
// flits), a duty-cycled DRAM channel stretches completion cycles, and
// redirected SE work moves remote ops across banks. Fig 14's atomic
// distribution reads the per-bank remote-op series, so any lost or
// misattributed count shows up as a j1-vs-j8 byte diff.
func TestFaultedDeferredAccountingByteIdenticalAcrossJobs(t *testing.T) {
	spec := faults.Spec{Seed: 1, NDeadBanks: 2, NDeadLinks: 2,
		Links: []faults.LinkFault{{From: 0, To: 1, Drop: 0.05}},
		DRAM: []faults.DRAMFault{
			{Chan: 0, LatencyX: 2},
			{Chan: 1, LatencyX: 1, DutyOn: 40, DutyPeriod: 100},
		}}
	render := func(jobs int) string {
		fig, err := Fig14(Options{Scale: Tiny, Seed: 1, Jobs: jobs, Faults: spec})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		fig.Render(&buf)
		return buf.String()
	}
	j1 := render(1)
	j8 := render(8)
	if j1 != j8 {
		t.Fatalf("faulted fig14 differs between -j1 and -j8:\n--- j1 ---\n%s\n--- j8 ---\n%s", j1, j8)
	}
}
