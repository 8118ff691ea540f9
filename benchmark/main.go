// Command benchmark is the repository's one benchmark: four workloads
// over the simulator and the placement daemon, nine timed or modelled
// end-to-end metrics plus failed_frac, and per-layer numbers from a
// traced run. README.md beside this file describes every metric;
// BENCHMARK.json at the repository root names them for the driver.
//
//	go run ./benchmark                       every workload, tracing off
//	go run ./benchmark -trace 1              also the traced runs and the layer kernels
//	go run ./benchmark -repeat 2             the set twice, compared against the bounds
//	go run ./benchmark -workload figs_tiny   one workload; the last line is JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// tmpDir holds the journals of command-line runs. It is inside the
// working directory, not the system's temporary one, because the driver
// lets the benchmark write only inside its checkout. Each run works in
// a directory of its own under it and removes that on the way out.
const tmpDir = ".bench_tmp"

func main() {
	os.Exit(runInTmp())
}

func runInTmp() int {
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	dir, err := os.MkdirTemp(tmpDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer func() {
		os.RemoveAll(dir)
		os.Remove(tmpDir) // stays while another run has a directory in it
	}()
	return run(os.Args[1:], os.Stdout, os.Stderr, dir)
}

// run is the command. It returns the exit code: 0 when every requested
// run produced its numbers and, under -repeat, the runs agreed.
func run(args []string, stdout, stderr io.Writer, tmpRoot string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload and print one JSON object as the last line")
	seed := fs.Int64("seed", 1, "seed of every generated input (1 while developing, 7 held out for claims)")
	secs := fs.Int("seconds", 20, "how long the timed passes or reps of each workload run")
	trace := fs.Int("trace", 0, "1 adds a traced run per workload and the layer kernels; with -workload, the JSON line carries the per-layer metrics instead")
	traceOut := fs.String("trace-out", "", "write the traced runs' spans to this file as Chrome trace_event JSON")
	repeat := fs.Int("repeat", 1, "run the set this many times and compare every run with the first")
	smoke := fs.Bool("smoke", false, "tiny inputs, one pass, one rep: checks that everything runs, measures nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *secs < 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: want -seconds >= 0, -repeat >= 1, -trace 0 or 1, and no other arguments")
		return 2
	}
	// Load is generated in this process, so it gets no more threads than
	// the host has processors.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	sz := fullSizing(*secs, tmpRoot)
	if *smoke {
		sz = smokeSizing(tmpRoot)
	}
	names := make([]string, 0, len(workloadSpecs))
	for _, w := range workloadSpecs {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	fmt.Fprintf(stdout, "host: nproc %d, GOMAXPROCS %d, %s %s/%s; seed %d, %v timed per workload\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, *seed, sz.Budget)

	var sets []*runSet
	for i := 0; i < *repeat; i++ {
		if *repeat > 1 {
			fmt.Fprintf(stdout, "\n#### run %d of %d\n", i+1, *repeat)
		}
		set, err := runOnce(names, *seed, sz, *trace == 1, *workload == "", stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		sets = append(sets, set)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, sets[len(sets)-1]); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	code := 0
	for i := 1; i < len(sets); i++ {
		fmt.Fprintf(stdout, "\n#### run %d against run 1\n", i+1)
		if !compareSets(stdout, sets[0], sets[i]) {
			code = 1
		}
	}
	if *workload != "" {
		if err := printJSON(stdout, sets[len(sets)-1], *trace == 1); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// runSet is one run of the selected workloads: the untraced results and,
// when asked for, the traced ones and the layer kernels.
type runSet struct {
	Plain   []*result
	Traced  []*result
	Kernels *result
}

// runOnce runs the named workloads. A driver run (-workload) with
// tracing on skips the untraced run: the traced one times its own
// untraced passes for the overhead.
func runOnce(names []string, seed int64, sz sizing, traced, withPlain bool, out io.Writer) (*runSet, error) {
	set := &runSet{}
	for _, name := range names {
		if withPlain || !traced {
			r, err := runWorkload(name, seed, sz, false)
			if err != nil {
				return nil, err
			}
			set.Plain = append(set.Plain, r)
			printResult(out, r, endToEnd, "tracing off")
		}
		if traced {
			r, err := runWorkload(name, seed, sz, true)
			if err != nil {
				return nil, err
			}
			set.Traced = append(set.Traced, r)
			printResult(out, r, perLayer, "traced")
		}
	}
	printPaperError(out, set.Plain)
	if traced {
		set.Kernels = newResult("layer_kernels", seed)
		set.Kernels.tr = newTracer()
		if err := runKernels(set.Kernels, seed, sz); err != nil {
			return nil, err
		}
		printResult(out, set.Kernels, perLayer, "traced")
	}
	return set, nil
}

// printResult prints the metrics of specs that r holds, one per line:
// name, value, unit, and the bound of an end-to-end metric.
func printResult(out io.Writer, r *result, specs []metricSpec, how string) {
	fmt.Fprintf(out, "\n== %s  seed %d  %s\n", r.Workload, r.Seed, how)
	for _, m := range specs {
		v, ok := r.Values[m.Name]
		if !ok {
			continue // a metric this workload does not own
		}
		note := ""
		switch {
		case m.Exact && m.Bound > 0:
			note = " exact"
		case m.Bound > 0:
			note = fmt.Sprintf(" bound %g%%", m.Bound*100)
		}
		fmt.Fprintf(out, "  %-40s %16.6g %-6s%s\n", m.Name, v, m.Unit, note)
	}
	if r.Attempted > 0 {
		fmt.Fprintf(out, "  %-40s %16.6g %-6s exact  (%d failed of %d attempted)\n", "failed_frac", r.failedFrac(), "frac", r.Failed, r.Attempted)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	if r.Digest != "" {
		fmt.Fprintf(out, "  sim_digest %s\n", r.Digest)
	}
	if len(r.Spans) > 0 {
		fmt.Fprintf(out, "  spans by self time:\n")
		for _, s := range r.Spans {
			fmt.Fprintf(out, "    %-36s n=%-6d total %10.3f ms  self %10.3f ms\n", s.Name, s.Count, millis(s.Total), millis(s.Self))
		}
	}
}

// printPaperError prints the ten-benchmark Aff-Alloc over Near-L3
// geomean against the paper's, once both simulator workloads have run.
func printPaperError(out io.Writer, plain []*result) {
	ratios := map[string]float64{}
	for _, r := range plain {
		if r.Workload == wlSimAffine || r.Workload == wlSimIrregular {
			for b, v := range r.Ratios {
				ratios[b] = v
			}
		}
	}
	benches := append(append([]string{}, affineBenches...), irregularBenches...)
	if len(ratios) != len(benches) {
		return
	}
	g := geomeanOf(ratios, benches)
	fmt.Fprintf(out, "\nfidelity: Aff-Alloc over Near-L3, geomean of the ten benchmarks: %.4fx simulated, %.2fx in the paper, error %+.1f%%.\n",
		g, paperAffSpeedup, (g/paperAffSpeedup-1)*100)
	fmt.Fprintf(out, "The paper gives no per-group value, so the per-workload geomeans carry no error; the model is otherwise unvalidated.\n")
}

// agree reports whether b is within the metric's bound of a, or
// identical for an exact metric.
func agree(m metricSpec, a, b float64) bool {
	if m.Exact || a == 0 {
		return a == b
	}
	return math.Abs(b-a)/math.Abs(a) <= m.Bound
}

// compareSets prints, per workload and end-to-end metric, both runs'
// values, their relative difference and the bound, then the exact
// outputs, and reports whether everything agreed.
func compareSets(out io.Writer, a, b *runSet) bool {
	ok := true
	for i, ra := range a.Plain {
		rb := b.Plain[i]
		fmt.Fprintf(out, "\n== %s\n", ra.Workload)
		for _, m := range endToEnd {
			va, applies := ra.Values[m.Name]
			if !applies {
				continue
			}
			vb := rb.Values[m.Name]
			verdict := "ok"
			if !agree(m, va, vb) {
				verdict, ok = "EXCEEDED", false
			}
			diff := 0.0
			if va != 0 {
				diff = (vb - va) / va * 100
			}
			fmt.Fprintf(out, "  %-22s %16.6g %16.6g %-6s %+8.2f%%  bound %5.1f%%  %s\n", m.Name, va, vb, m.Unit, diff, m.Bound*100, verdict)
		}
		verdict := "identical"
		if ra.Digest != rb.Digest {
			verdict, ok = "DIFFERS", false
		}
		fmt.Fprintf(out, "  %-22s %s\n", "sim_digest", verdict)
		// The pass count follows the clock, so only the failures compare.
		verdict = "0 in both"
		if ra.Failed+rb.Failed > 0 {
			verdict, ok = "NOT 0", false
		}
		fmt.Fprintf(out, "  %-22s %s  (%d of %d, %d of %d)\n", "failed_frac", verdict, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
	}
	for i, ra := range a.Traced {
		rb := b.Traced[i]
		var differ []string
		for _, m := range perLayer {
			if m.Exact && ra.Values[m.Name] != rb.Values[m.Name] {
				differ = append(differ, m.Name)
			}
		}
		if len(differ) > 0 {
			ok = false
			fmt.Fprintf(out, "  %s: modelled counts DIFFER: %s\n", ra.Workload, strings.Join(differ, ", "))
		} else {
			fmt.Fprintf(out, "  %s: modelled counts identical\n", ra.Workload)
		}
	}
	return ok
}

// printJSON prints the driver's object for a single-workload run: the
// end-to-end metrics of the untraced run, or with tracing every
// per-layer metric, those the workload does not own reading 0. The
// driver wants every end-to-end metric from every workload, none that
// reads 0 and no time that reads the same on every run. So an end-to-end
// metric the workload does not own, which no other output shows, is
// filled here and only here: a time repeats the workload's wall_s in the
// metric's unit, anything else reads the constant notApplicable.
func printJSON(out io.Writer, set *runSet, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	r, specs := set.Plain, endToEnd
	if traced {
		r, specs = set.Traced, perLayer
	}
	doc.Attempted, doc.Failed = r[0].Attempted, r[0].Failed
	doc.Correct = doc.Failed == 0 && doc.Attempted > 0
	for _, m := range specs {
		v, ok := r[0].Values[m.Name]
		switch {
		case traced && !ok:
			v = set.Kernels.Values[m.Name]
		case !ok && m.Unit == "s":
			v = r[0].Values["wall_s"]
		case !ok && m.Unit == "ms":
			v = r[0].Values["wall_s"] * 1e3
		case !ok:
			v = notApplicable
		}
		doc.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// writeTrace writes every traced run's spans to one Chrome trace file,
// a process per workload.
func writeTrace(path string, set *runSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	traces := append([]*result{}, set.Traced...)
	if set.Kernels != nil {
		traces = append(traces, set.Kernels)
	}
	if err := writeChrome(f, traces); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
