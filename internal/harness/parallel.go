package harness

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"affinityalloc/internal/engine"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/workloads"
)

// cell is one independent simulation unit, as data: workload w run under
// mode on a private sys.System built from cfg. runCells is the one
// runner; it hands every cell to workloads.RunTraced. Cells never share
// mutable state — workload construction (graph generation, weight
// assignment) happens before the cells are launched — so any execution
// order yields the same Results and runCells can schedule them freely.
type cell struct {
	label string
	cfg   sys.Config
	w     workloads.Workload
	mode  sys.Mode
}

// jobs resolves the worker count: Options.Jobs when positive, else the
// runtime's GOMAXPROCS.
func (o Options) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// ShareWorkers returns a copy of o whose cell execution draws on one
// shared pool of jobs() tokens. RunAll uses it so that concurrently
// running experiments together never execute more than -j cells at
// once. Figure functions must not nest forEach calls inside cell
// bodies: a cell holds a token while it runs, so a nested wait on the
// same pool could starve.
func (o Options) ShareWorkers() Options {
	o.limit = make(chan struct{}, o.jobs())
	return o
}

// forEach runs fn(i) for every i in [0,n) across up to jobs() concurrent
// workers and returns the lowest-index error. Every fn must touch only
// state owned by its index; the WaitGroup edge makes all writes visible
// to the caller afterwards. All indices run even if some fail, so the
// reported error is deterministic regardless of scheduling.
func (o Options) forEach(n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	j := o.jobs()
	if j > n {
		j = n
	}
	errs := make([]error, n)
	if j <= 1 && o.limit == nil {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(j)
		for w := 0; w < j; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					if o.limit != nil {
						o.limit <- struct{}{}
					}
					errs[i] = fn(i)
					if o.limit != nil {
						<-o.limit
					}
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runCells executes independent simulation cells across the option's
// worker budget and returns their results in input order, so output
// rendered from them is byte-identical to a serial run. Each cell's
// wall time and simulated cycle count are recorded in opt.Timing when
// set, and its telemetry snapshot lands in opt.Collect at a slot
// reserved before the cells launch — both outputs are deterministic for
// any worker count.
//
// Cells run behind a panic shield (see Options.runCell): a panicking or
// erroring cell fails alone while the rest of the batch completes. When
// any cell fails the partial results are returned alongside a
// *CellFailures error listing every failure in input order; failed cells'
// result slots are zero-valued.
func runCells(opt Options, cells []cell) ([]workloads.Result, error) {
	out := make([]workloads.Result, len(cells))
	cellErrs := make([]error, len(cells))
	slot := opt.Collect.reserve(len(cells))
	tslot := opt.Record.Reserve(len(cells))
	_ = opt.forEach(len(cells), func(i int) error {
		start := time.Now()
		r, sc, err := opt.runCell(cells[i])
		if err != nil {
			cellErrs[i] = err
			return err
		}
		out[i] = r
		opt.Timing.observe(cells[i].label, time.Since(start), r.Metrics.Cycles)
		opt.Collect.put(slot+i, cells[i].label, r.Metrics.Detail)
		opt.Record.Put(tslot+i, sc)
		return nil
	})
	var fails []CellFailure
	for i, err := range cellErrs {
		if err != nil {
			fails = append(fails, CellFailure{Index: i, Label: cells[i].label, Err: err})
		}
	}
	if len(fails) > 0 {
		return out, &CellFailures{Cells: fails}
	}
	return out, nil
}

// CellTiming is one simulation cell's run accounting.
type CellTiming struct {
	Label     string
	Wall      time.Duration
	SimCycles engine.Time
}

// CyclesPerSec returns the cell's simulated-cycles-per-wall-second rate.
func (c CellTiming) CyclesPerSec() float64 {
	if c.Wall <= 0 {
		return 0
	}
	return float64(c.SimCycles) / c.Wall.Seconds()
}

// Timing accumulates per-cell run accounting across a harness run. It
// is safe for concurrent use; a nil *Timing discards observations.
type Timing struct {
	mu    sync.Mutex
	cells []CellTiming
}

func (t *Timing) observe(label string, wall time.Duration, cycles engine.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cells = append(t.cells, CellTiming{Label: label, Wall: wall, SimCycles: cycles})
	t.mu.Unlock()
}

// Cells returns a copy of the recorded cells, sorted by label so the
// report order does not depend on scheduling.
func (t *Timing) Cells() []CellTiming {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]CellTiming(nil), t.cells...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// Summary returns the cell count, summed per-cell wall time (the
// serial-equivalent duration), and summed simulated cycles.
func (t *Timing) Summary() (cells int, wall time.Duration, sim engine.Time) {
	if t == nil {
		return 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.cells {
		wall += c.Wall
		sim += c.SimCycles
	}
	return len(t.cells), wall, sim
}

// Report writes one accounting line per cell.
func (t *Timing) Report(w io.Writer) {
	for _, c := range t.Cells() {
		fmt.Fprintf(w, "  %-36s wall %8.3fs  sim %12d cyc  %8.1f Mcyc/s\n",
			c.Label, c.Wall.Seconds(), uint64(c.SimCycles), c.CyclesPerSec()/1e6)
	}
}

// RunAll regenerates every experiment (or the subset in only) and
// writes the rendered figures to out in registry order — byte-identical
// to a serial run for any worker count, since each experiment renders
// into its own buffer. Experiments run concurrently, all drawing on one
// shared pool of opt.Jobs workers; with -j 1 they run strictly
// sequentially. A failed experiment renders a FAILED section and does
// not abort the others; the lowest-registry-order error is returned.
//
// When timingOut is non-nil a per-experiment accounting line is written
// there after the figures (and per-cell lines when perCell is set), so
// the figure stream itself stays deterministic.
//
// When arts requests machine-readable outputs, every experiment's cells
// are collected and written as one document after the figures, cells
// labeled "<experiment>/<workload>/<mode>" in registry-then-reservation
// order — like the figure stream, byte-identical for any worker count.
func RunAll(opt Options, out io.Writer, only map[string]bool, timingOut io.Writer, perCell bool, arts *Artifacts) error {
	var sel []Experiment
	for _, e := range Experiments() {
		if len(only) == 0 || only[e.ID] {
			sel = append(sel, e)
		}
	}
	opt = opt.ShareWorkers()

	type expRun struct {
		buf     bytes.Buffer
		timing  *Timing
		collect *Collector
		wall    time.Duration
		err     error
	}
	runs := make([]expRun, len(sel))
	serial := opt.jobs() == 1
	var wg sync.WaitGroup
	for i := range sel {
		i := i
		one := func() {
			r := &runs[i]
			r.timing = &Timing{}
			o := opt
			o.Timing = r.timing
			if arts.enabled() {
				r.collect = &Collector{}
				o.Collect = r.collect
			}
			start := time.Now()
			fig, err := sel[i].Run(o)
			r.wall = time.Since(start)
			if err != nil {
				r.err = fmt.Errorf("%s: %w", sel[i].ID, err)
				fmt.Fprintf(&r.buf, "### %s — FAILED: %v\n\n", sel[i].ID, err)
				return
			}
			fig.Render(&r.buf)
		}
		if serial {
			one()
		} else {
			wg.Add(1)
			go func() {
				defer wg.Done()
				one()
			}()
		}
	}
	wg.Wait()

	var firstErr error
	for i := range sel {
		if _, err := out.Write(runs[i].buf.Bytes()); err != nil {
			return err
		}
		if runs[i].err != nil && firstErr == nil {
			firstErr = runs[i].err
		}
	}
	if arts.enabled() {
		var cells []CollectedCell
		for i := range sel {
			for _, cc := range runs[i].collect.Cells() {
				cells = append(cells, CollectedCell{Label: sel[i].ID + "/" + cc.Label, Snap: cc.Snap})
			}
		}
		if err := arts.Write(cells); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if timingOut != nil {
		var totCells int
		var totWall, totCellWall time.Duration
		var totSim engine.Time
		for i := range sel {
			n, cellWall, sim := runs[i].timing.Summary()
			rate := 0.0
			if runs[i].wall > 0 {
				rate = float64(sim) / runs[i].wall.Seconds() / 1e6
			}
			fmt.Fprintf(timingOut, "%-7s %3d cells  wall %7.2fs  cellsum %7.2fs  sim %12d cyc  %8.1f Mcyc/s\n",
				sel[i].ID, n, runs[i].wall.Seconds(), cellWall.Seconds(), uint64(sim), rate)
			if perCell {
				runs[i].timing.Report(timingOut)
			}
			totCells += n
			totWall += runs[i].wall
			totCellWall += cellWall
			totSim += sim
		}
		fmt.Fprintf(timingOut, "total   %3d cells  cellsum %7.2fs  sim %12d cyc  (j=%d)\n",
			totCells, totCellWall.Seconds(), uint64(totSim), opt.jobs())
	}
	return firstErr
}
