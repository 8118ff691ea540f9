package harness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"affinityalloc/internal/backoff"
	"affinityalloc/internal/faults"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/telemetry"
	"affinityalloc/internal/trace"
	"affinityalloc/internal/workloads"
)

// okCell returns a cell that succeeds with a distinguishable checksum.
func okCell(label string, sum uint64) cell {
	return cell{label: label, run: func(rec *trace.Recorder) (workloads.Result, error) {
		return workloads.Result{Checksum: sum}, nil
	}}
}

// A panicking cell must become its own per-cell failure while every
// sibling still completes and keeps its slot in the result order.
func TestRunCellsPanicYieldsPartialResults(t *testing.T) {
	cells := []cell{
		okCell("c0", 10),
		{label: "c1", run: func(rec *trace.Recorder) (workloads.Result, error) { panic("simulated crash") }},
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
	boom := func(label string) cell {
		return cell{label: label, run: func(rec *trace.Recorder) (workloads.Result, error) {
			return workloads.Result{}, fmt.Errorf("%s exploded", label)
		}}
	}
	_, err := runCells(Options{Jobs: 8}, []cell{
		okCell("c0", 1), boom("c1"), okCell("c2", 2), boom("c3"),
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

func TestCellTimeoutFailsTheCellOnly(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	cells := []cell{
		okCell("fast", 1),
		{label: "wedged", run: func(rec *trace.Recorder) (workloads.Result, error) {
			<-release // a simulation that never finishes on its own
			return workloads.Result{}, nil
		}},
	}
	rs, err := runCells(Options{Jobs: 2, CellTimeout: 50 * time.Millisecond}, cells)
	var fails *CellFailures
	if !errors.As(err, &fails) {
		t.Fatalf("err = %v", err)
	}
	if len(fails.Cells) != 1 || fails.Cells[0].Label != "wedged" {
		t.Fatalf("failures %+v", fails.Cells)
	}
	if !strings.Contains(fails.Cells[0].Err.Error(), "wall-clock timeout") {
		t.Fatalf("error %q", fails.Cells[0].Err)
	}
	if rs[0].Checksum != 1 {
		t.Fatal("sibling result lost")
	}
}

func TestTransientErrorsRetryUntilSuccess(t *testing.T) {
	attempts := 0
	c := cell{label: "flaky", run: func(rec *trace.Recorder) (workloads.Result, error) {
		attempts++
		if attempts < 3 {
			return workloads.Result{}, fmt.Errorf("spurious wobble: %w", ErrTransient)
		}
		return workloads.Result{Checksum: 7}, nil
	}}
	rs, err := runCells(Options{Jobs: 1, CellRetries: 3}, []cell{c})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 3 || rs[0].Checksum != 7 {
		t.Fatalf("attempts=%d checksum=%d", attempts, rs[0].Checksum)
	}
}

func TestRetriesExhaustAndNonTransientNeverRetries(t *testing.T) {
	transient := 0
	hard := 0
	_, err := runCells(Options{Jobs: 1, CellRetries: 2}, []cell{
		{label: "always-transient", run: func(rec *trace.Recorder) (workloads.Result, error) {
			transient++
			return workloads.Result{}, fmt.Errorf("wobble %d: %w", transient, ErrTransient)
		}},
		{label: "hard", run: func(rec *trace.Recorder) (workloads.Result, error) {
			hard++
			return workloads.Result{}, errors.New("deterministic failure")
		}},
	})
	var fails *CellFailures
	if !errors.As(err, &fails) || len(fails.Cells) != 2 {
		t.Fatalf("err = %v", err)
	}
	if transient != 3 { // 1 attempt + 2 retries
		t.Fatalf("transient cell ran %d times, want 3", transient)
	}
	if hard != 1 {
		t.Fatalf("hard-failing cell ran %d times, want 1", hard)
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatal("aggregate error should expose the transient cause to errors.Is")
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

// TestRetryBackoffClamped pins the overflow fix in the retry path:
// RetryBackoff << attempt used to overflow time.Duration at large
// CellRetries (1s of base backoff goes negative at attempt 34); the
// delay must instead saturate at maxRetryBackoff for every attempt.
// The schedule itself lives in internal/backoff (shared with the
// affinityd client); this pins the harness's use of it — same cap, same
// doubling — so the retry loop's contract cannot drift silently.
func TestRetryBackoffClamped(t *testing.T) {
	cases := []struct {
		base    time.Duration
		attempt int
		want    time.Duration
	}{
		{0, 5, 0}, // no backoff configured
		{time.Millisecond, 0, time.Millisecond},
		{time.Millisecond, 3, 8 * time.Millisecond}, // doubling intact below the cap
		{time.Second, 4, 16 * time.Second},
		{time.Second, 5, maxRetryBackoff},   // first clamped step (32s > 30s)
		{time.Second, 34, maxRetryBackoff},  // would be negative unclamped
		{time.Second, 200, maxRetryBackoff}, // shift count past the word width
		{time.Minute, 0, maxRetryBackoff},   // base already above the cap
	}
	for _, tc := range cases {
		if got := backoff.Delay(tc.base, maxRetryBackoff, tc.attempt); got != tc.want {
			t.Errorf("backoff.Delay(%v, %v, %d) = %v, want %v", tc.base, maxRetryBackoff, tc.attempt, got, tc.want)
		}
		if got := backoff.Delay(tc.base, maxRetryBackoff, tc.attempt); got < 0 || got > maxRetryBackoff {
			t.Errorf("backoff.Delay(%v, %v, %d) = %v out of [0, %v]", tc.base, maxRetryBackoff, tc.attempt, got, maxRetryBackoff)
		}
	}
}

// TestAbandonedTimedOutCellCannotMutateSharedState pins the containment
// contract for timed-out cells: runCellOnce abandons the goroutine of a
// cell that exceeds CellTimeout, and when that goroutine eventually
// completes it must not be able to publish its result anywhere — not
// the result slice, not Timing, not the Collector — nor wedge or panic
// on its result send. The test wedges a cell past its timeout, lets the
// batch finish, then releases the zombie and checks every shared
// surface still shows only the timeout outcome. Run under -race this
// also proves the late completion doesn't race the harness teardown.
func TestAbandonedTimedOutCellCannotMutateSharedState(t *testing.T) {
	release := make(chan struct{})
	zombieDone := make(chan struct{})
	var timing Timing
	var collect Collector
	opt := Options{Jobs: 2, CellTimeout: 30 * time.Millisecond,
		Timing: &timing, Collect: &collect}
	cells := []cell{
		{label: "fast", run: func(rec *trace.Recorder) (workloads.Result, error) {
			return workloads.Result{Checksum: 1,
				Metrics: sys.Metrics{Cycles: 7, Detail: &telemetry.Snapshot{}}}, nil
		}},
		{label: "wedged", run: func(rec *trace.Recorder) (workloads.Result, error) {
			<-release // held past the timeout, completes only when released
			defer close(zombieDone)
			return workloads.Result{Checksum: 0xbad,
				Metrics: sys.Metrics{Cycles: 999, Detail: &telemetry.Snapshot{}}}, nil
		}},
	}

	rs, err := runCells(opt, cells)
	var fails *CellFailures
	if !errors.As(err, &fails) || len(fails.Cells) != 1 || fails.Cells[0].Label != "wedged" {
		t.Fatalf("err = %v, want exactly the wedged cell's timeout", err)
	}

	// The batch is over; now let the abandoned goroutine run to completion
	// and attempt its (dead-lettered) result send.
	close(release)
	<-zombieDone
	// The zombie's wrapping goroutine still has to deliver its outcome to
	// the (now dead-lettered, buffered) channel; give it a moment so a
	// blocking or panicking send would surface here under -race.
	time.Sleep(20 * time.Millisecond)

	if rs[1] != (workloads.Result{}) {
		t.Errorf("timed-out slot holds %+v after zombie completion, want the zero value", rs[1])
	}
	if rs[0].Checksum != 1 {
		t.Errorf("sibling result corrupted: %+v", rs[0])
	}
	for _, ct := range timing.Cells() {
		if ct.Label == "wedged" {
			t.Errorf("zombie published timing %+v after abandonment", ct)
		}
	}
	for _, cc := range collect.Cells() {
		if cc.Label == "wedged" {
			t.Errorf("zombie published telemetry %+v after abandonment", cc)
		}
	}
	if got := len(collect.Cells()); got != 1 {
		t.Errorf("collector holds %d cells, want 1 (the fast sibling)", got)
	}
}
