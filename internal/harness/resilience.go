package harness

import (
	"fmt"
	"strings"

	"affinityalloc/internal/trace"
	"affinityalloc/internal/workloads"
)

// CellFailure is one failed cell of a batch: its input index, harness
// label, and error.
type CellFailure struct {
	Index int
	Label string
	Err   error
}

// CellFailures aggregates every failed cell of a batch, in input order.
// runCells returns it alongside the partial results, so callers that can
// tolerate holes (the fault sweep, RunAll's report) keep the successful
// cells while callers that need the full batch just propagate the error.
type CellFailures struct {
	Cells []CellFailure
}

// failureListCap bounds how many per-cell messages Error renders.
const failureListCap = 8

func (e *CellFailures) Error() string {
	var b strings.Builder
	if len(e.Cells) > 1 {
		fmt.Fprintf(&b, "%d cells failed: ", len(e.Cells))
	}
	for i, c := range e.Cells {
		if i == failureListCap {
			fmt.Fprintf(&b, "; +%d more", len(e.Cells)-i)
			break
		}
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s: %v", c.Label, c.Err)
	}
	return b.String()
}

// Unwrap exposes the per-cell errors to errors.Is/As.
func (e *CellFailures) Unwrap() []error {
	errs := make([]error, len(e.Cells))
	for i, c := range e.Cells {
		errs[i] = c.Err
	}
	return errs
}

// Failed returns the failed cells' labels in input order.
func (e *CellFailures) Failed() []string {
	out := make([]string, len(e.Cells))
	for i, c := range e.Cells {
		out[i] = c.Label
	}
	return out
}

// runCell runs one cell behind a panic shield: a panic inside the
// simulation — a typed data-plane access failure (memsim.AccessError) or
// a programmer-error invariant alike — becomes this cell's error, so one
// crashing simulation cannot take down the whole harness process while
// its siblings keep running. When Options.Record is set, the returned
// scenario is the cell's recording (nil on failure or when recording is
// off).
func (o Options) runCell(c cell) (r workloads.Result, sc *trace.Scenario, err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = fmt.Errorf("cell panicked: %w", e)
			} else {
				err = fmt.Errorf("cell panicked: %v", p)
			}
		}
	}()
	rec := o.Record.NewRecorder(c.label)
	if r, err = workloads.RunTraced(c.cfg, c.w, c.mode, rec); err != nil {
		return r, nil, err
	}
	return r, rec.Scenario(), nil
}
