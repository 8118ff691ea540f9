package main

import (
	"fmt"
	"time"

	"affinityalloc/internal/harness"
)

// sizing fixes how much work a run does. Only the pass and rep counts
// follow the time budget; the input sizes are fixed per workload, and
// -smoke swaps in tiny ones so that `go test` can walk every code path.
type sizing struct {
	// Scale sizes the simulator workloads' inputs; figs_tiny always
	// runs at tiny scale.
	Scale harness.Scale
	// Warmup runs one untimed simulator pass before the timed ones, as
	// part of set-up (the daemon always warms up: that rep is the one
	// diffed against the library). Budget is how long the timed passes
	// or reps of one workload run; MinPasses of them run whatever the
	// budget.
	Warmup    bool
	Budget    time.Duration
	MinPasses int
	// DaemonOps and DaemonBatch shape the daemon's request stream, and
	// DaemonMinReps is the daemon's MinPasses (its percentiles pool the
	// batches of every rep). DaemonBareReps is how many traced reps are
	// each followed by one without a journal, for journal_share.
	DaemonOps      int
	DaemonBatch    int
	DaemonMinReps  int
	DaemonBareReps int
	// KernelN is the element count of a layer kernel and KernelRounds
	// how many times each runs for its median.
	KernelN      int64
	KernelRounds int
	// TmpRoot is where journals are written; each rep removes its own.
	TmpRoot string
}

func fullSizing(seconds int, tmpRoot string) sizing {
	return sizing{
		Scale:          harness.Default,
		Warmup:         true,
		Budget:         time.Duration(seconds) * time.Second,
		MinPasses:      3,
		DaemonOps:      4096,
		DaemonBatch:    16,
		DaemonMinReps:  30,
		DaemonBareReps: 5,
		KernelN:        1 << 20,
		KernelRounds:   5,
		TmpRoot:        tmpRoot,
	}
}

func smokeSizing(tmpRoot string) sizing {
	return sizing{
		Scale:          harness.Tiny,
		MinPasses:      1,
		DaemonOps:      256,
		DaemonBatch:    16,
		DaemonMinReps:  1,
		DaemonBareReps: 1,
		KernelN:        1 << 12,
		KernelRounds:   1,
		TmpRoot:        tmpRoot,
	}
}

// result is what one run of one workload reports.
type result struct {
	Workload string
	Seed     int64
	// Values holds the end-to-end metrics, measured over the untraced
	// passes, and after a traced run the per-layer metrics too, by name.
	Values map[string]float64
	// Digest is a SHA-256 over every modelled output of a pass (every
	// simulated statistic, or every wire placement), identical across
	// passes and printed so that two commits compare exactly.
	Digest string
	// Ratios is Near-L3 cycles ÷ Aff-Alloc cycles per benchmark.
	Ratios map[string]float64
	// Attempted and Failed count operations: cells, batches, and the
	// per-pass or per-rep output checks.
	Attempted int
	Failed    int
	Failures  []string
	// Notes are printed under the metrics, such as a sample count.
	Notes []string
	Spans []spanTotals
	tr    *tracer
}

func newResult(workload string, seed int64) *result {
	return &result{Workload: workload, Seed: seed, Values: map[string]float64{}}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// tracers lists the passes of one iteration of a timed loop by their
// tracer: the untraced pass, then in a traced run the traced one.
func (r *result) tracers() []*tracer {
	if r.tr == nil {
		return []*tracer{nil}
	}
	return []*tracer{nil, r.tr}
}

// fail records one failed operation.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) failedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// timedLoop calls pass at least min times and until budget has elapsed.
func timedLoop(budget time.Duration, min int, pass func(i int)) {
	start := time.Now()
	for i := 0; i < min || time.Since(start) < budget; i++ {
		pass(i)
	}
}

// traceOverhead is traced ÷ untraced median wall − 1.
func traceOverhead(plain, traced []hostCost) float64 {
	pw, _, _, _ := costColumns(plain)
	tw, _, _, _ := costColumns(traced)
	if m := median(pw); m > 0 {
		return median(tw)/m - 1
	}
	return 0
}

// runWorkload runs one workload by name. A traced run follows every
// untraced pass with a traced one, so that the end-to-end metrics still
// come from untraced passes and the tracing overhead compares neighbours.
func runWorkload(name string, seed int64, sz sizing, traced bool) (*result, error) {
	var (
		r   *result
		err error
	)
	switch name {
	case wlSimAffine:
		r, err = runSim(name, affineBenches, seed, sz, traced)
	case wlSimIrregular:
		r, err = runSim(name, irregularBenches, seed, sz, traced)
	case wlFigsTiny:
		r, err = runFigs(seed, sz, traced)
	case wlDaemonPlace:
		r, err = runDaemon(seed, sz, traced)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.Spans = r.tr.totals()
	return r, nil
}

// layerKernel times one layer's public functions on seeded inputs and
// stores its metrics in r. Each lives in its own kernel_*.go file.
type layerKernel struct {
	Name string
	Run  func(r *result, seed int64, sz sizing) error
}

var layerKernels = []layerKernel{
	{"stream", kernelStream},
	{"cache", kernelCache},
	{"noc", kernelNoC},
	{"engine", kernelEngine},
	{"core", kernelCore},
}

func runKernels(r *result, seed int64, sz sizing) error {
	for _, k := range layerKernels {
		var err error
		r.tr.do("kernel "+k.Name, -1, 0, func() { err = k.Run(r, seed, sz) })
		if err != nil {
			return fmt.Errorf("kernel %s: %w", k.Name, err)
		}
	}
	r.Spans = r.tr.totals()
	return nil
}
