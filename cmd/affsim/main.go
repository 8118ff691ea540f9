// Command affsim runs one benchmark, one paper experiment, or the whole
// evaluation on the simulated system and prints paper-shaped output.
//
// Usage:
//
//	affsim -list
//	affsim -exp fig12 [-scale tiny|default|paper] [-seed N] [-j N] [-timing]
//	affsim -all [-scale ...] [-seed N] [-j N] [-timing]
//	affsim -workload bfs [-scale ...] [-policy hybrid5|minhop|rnd|lnr] [-mode affalloc] [-j N] [-timing]
//	affsim ... [-faults dead-banks=2,dead-links=2] (degraded-substrate runs)
//	affsim ... [-realloc epoch=2000,threshold=0.25] (online re-allocation)
//	affsim ... [-metrics-out m.json] [-trace-out t.json] [-pprof cpu.prof]
//	affsim ... [-record run.afftrace] (record an afftrace/v1 scenario trace)
//	affsim -replay run.afftrace (re-drive a recorded trace; verifies placements)
//	affsim -validate-metrics m.json
//
// -all, -exp and -workload all select harness experiments and run them
// through harness.RunAll (-workload is an experiment whose figure is
// "### workload — <name>"). Independent simulation cells (workload ×
// configuration runs) execute across -j worker goroutines; results are
// aggregated in a fixed order, so the rendered figures — and the
// -metrics-out / -trace-out / -record files — are byte-identical for
// every -j. Timing accounting goes to stderr, keeping stdout
// deterministic.
//
// For wall-clock performance measurement (host time, allocations,
// sim-cycles/sec), use `go run ./benchmark`; this binary reports
// simulated results only.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"affinityalloc/internal/cliconf"
	"affinityalloc/internal/harness"
	"affinityalloc/internal/stats"
	"affinityalloc/internal/telemetry"
	"affinityalloc/internal/trace"
)

func main() {
	cc := cliconf.Register(flag.CommandLine,
		cliconf.HarnessFlags|cliconf.ArtifactFlags|cliconf.FlagPolicy|
			cliconf.FlagRecord|cliconf.FlagReplay|cliconf.FlagRealloc)
	var (
		list     = flag.Bool("list", false, "list experiments and workloads")
		exp      = flag.String("exp", "", "experiment id to regenerate (fig4, fig6, fig12, ...)")
		all      = flag.Bool("all", false, "regenerate every experiment")
		workload = flag.String("workload", "", "workload to run under all three configurations")
		modeStr  = flag.String("mode", "all", "with -workload: run one configuration (incore|nearl3|affalloc) or all")
		validate = flag.String("validate-metrics", "", "parse and schema-check a metrics JSON document, then exit")
	)
	flag.Parse()

	stopProf, err := cc.StartProfile()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if err := run(cc, *list, *exp, *all, *workload, *modeStr, *validate); err != nil {
		stopProf()
		fatal(err)
	}
}

func run(cc *cliconf.Config, list bool, exp string, all bool, workload, modeStr, validatePath string) error {
	opt, err := cc.Options()
	if err != nil {
		return err
	}

	// Every simulating mode selects experiments and hands them to
	// harness.RunAll; -all always reports per-experiment timing on
	// stderr, -exp and -workload only with -timing.
	var exps []harness.Experiment
	artsName := "all"
	timingOut := io.Writer(os.Stderr)
	switch {
	case cc.ReplayIn != "":
		return runReplay(cc)
	case validatePath != "":
		return validateMetrics(validatePath)
	case list:
		fmt.Println("experiments:")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-7s %s\n", e.ID, e.Title)
		}
		fmt.Println("workloads:")
		for _, name := range harness.WorkloadNames(opt) {
			fmt.Printf("  %s\n", name)
		}
		return nil
	case all:
		exps = harness.Experiments()
	case exp != "":
		if exps, err = harness.Select(exp); err != nil {
			return err
		}
		artsName = exp
	case workload != "":
		pcfg, err := cc.Policy()
		if err != nil {
			return err
		}
		e, err := harness.WorkloadExperiment(opt, workload, modeStr, pcfg)
		if err != nil {
			return err
		}
		exps, artsName = []harness.Experiment{e}, "workload/"+workload
	default:
		flag.Usage()
		os.Exit(2)
	}
	if !all && !cc.Timing {
		timingOut = nil
	}

	arts, closeArts, err := cc.Artifacts(artsName, opt.Scale)
	if err != nil {
		return err
	}
	defer closeArts()
	// -record hooks an afftrace collector into the cells the invocation
	// runs; the trace is written once the run succeeds. Experiments that
	// run no cells (the parameter tables and fig17) record nothing — that
	// yields an empty trace, noted on stderr.
	var recCol *trace.Collector
	if cc.RecordOut != "" {
		recCol = trace.NewCollector()
		opt.Record = recCol
	}
	if err := harness.RunAll(opt, exps, os.Stdout, timingOut, cc.Timing, arts); err != nil || recCol == nil {
		return err
	}
	if len(recCol.Trace().Scenarios) == 0 {
		fmt.Fprintf(os.Stderr, "affsim: note: no workload cells ran; %s records an empty trace\n", cc.RecordOut)
	}
	return trace.WriteFile(cc.RecordOut, recCol.Trace())
}

func fatal(err error) {
	var fails *harness.CellFailures
	if errors.As(err, &fails) {
		// One-line failure summary: which cells died; their reasons are
		// already in the report/FAILED markings.
		fmt.Fprintf(os.Stderr, "affsim: %d cell(s) failed: %s\n",
			len(fails.Cells), strings.Join(fails.Failed(), ", "))
	} else {
		fmt.Fprintln(os.Stderr, "affsim:", err)
	}
	os.Exit(1)
}

// validateMetrics schema-checks a metrics document (the CI gate).
func validateMetrics(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	doc, err := telemetry.ParseDocument(data)
	if err != nil {
		return err
	}
	fmt.Printf("%s: valid metrics document (schema %d, %d cells)\n", path, doc.SchemaVersion, len(doc.Cells))
	return nil
}

// runReplay re-drives a recorded trace through the allocator and memory
// system and verifies the record→replay placement identity, printing one
// row per scenario. Any DIVERGE row makes the invocation fail.
func runReplay(cc *cliconf.Config) error {
	tr, err := trace.ReadFile(cc.ReplayIn)
	if err != nil {
		return err
	}
	if len(tr.Scenarios) == 0 {
		return fmt.Errorf("%s: trace has no scenarios (the recording run had no workload cells?)", cc.ReplayIn)
	}
	tbl := stats.NewTable(fmt.Sprintf("replay of %s (%d scenarios)", cc.ReplayIn, len(tr.Scenarios)),
		"scenario", "mode", "tenants", "allocs", "cycles.rec", "cycles.replay", "digest", "placements")
	diverged := 0
	for _, sc := range tr.Scenarios {
		allocs := int64(0)
		for t := 0; t < sc.NumTenants(); t++ {
			allocs += sc.AllocCount(t)
		}
		res, err := trace.Replay(sc, trace.Options{})
		if err != nil {
			diverged++
			tbl.AddRow(sc.Label, sc.Mode, sc.NumTenants(), allocs, sc.Cycles, "FAILED", "-", err.Error())
			continue
		}
		got, want := res.PlacementDump(), trace.RecordedDump(sc)
		status := "MATCH"
		if !bytes.Equal(got, want) {
			status = "DIVERGE"
			diverged++
		}
		tbl.AddRow(sc.Label, sc.Mode, sc.NumTenants(), allocs,
			sc.Cycles, uint64(res.Cycles), trace.Digest(got), status)
	}
	tbl.Render(os.Stdout)
	if diverged > 0 {
		return fmt.Errorf("replay: %d of %d scenario(s) diverged from their recorded placements",
			diverged, len(tr.Scenarios))
	}
	return nil
}
