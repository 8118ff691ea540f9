// Command afftables regenerates every table and figure of the paper's
// evaluation and writes the combined report (the data behind
// EXPERIMENTS.md) to stdout or a file.
//
// Usage:
//
//	afftables [-scale tiny|default|paper] [-seed N] [-j N] [-timing]
//	          [-o report.txt] [-only fig12,fig13]
//	          [-faults dead-banks=2] [-faults-sweep] [-colocation]
//	          [-realloc epoch=2000,...] [-realloc-sweep]
//	          [-metrics-out m.json] [-trace-out t.json] [-pprof cpu.prof]
//
// The report and each side table (-faults-sweep, -colocation,
// -realloc-sweep) run through harness.RunAll. Experiments run
// concurrently across -j worker goroutines and their figures are
// written in registry order, so the report — and the -metrics-out /
// -trace-out files — are byte-identical for every -j. Per-experiment
// timing goes to stderr, never into the report. An -only id the
// registry lacks fails before anything runs.
//
// For wall-clock performance measurement (host time, allocations,
// sim-cycles/sec), use `go run ./benchmark`; this binary reports
// simulated results only.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"affinityalloc/internal/cliconf"
	"affinityalloc/internal/harness"
)

func main() {
	cc := cliconf.Register(flag.CommandLine, cliconf.HarnessFlags|cliconf.ArtifactFlags|cliconf.FlagRealloc)
	var (
		outPath = flag.String("o", "", "output file (default stdout)")
		only    = flag.String("only", "", "comma-separated experiment ids (default all)")
		sweep   = flag.Bool("faults-sweep", false, "render the degraded-substrate sweep (dead banks/links x allocation modes) instead of the report")
		coloc   = flag.Bool("colocation", false, "render the trace-composed multi-tenant colocation interference table instead of the report")
		reSweep = flag.Bool("realloc-sweep", false, "render the static-vs-dynamic placement sweep (clean and mid-run bank-kill scenarios) instead of the report")
	)
	flag.Parse()

	opt, err := cc.Options()
	if err != nil {
		fatal(err)
	}

	stopProf, err := cc.StartProfile()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	// The report, or one side table in its place. Either way the
	// experiments run through harness.RunAll, which renders a side
	// table's FAILED(<reason>) cells and still fails the invocation.
	side := *coloc || *reSweep || *sweep
	exps, artsName := harness.Experiments(), "all"
	switch {
	case *coloc:
		exps = []harness.Experiment{{ID: "colocation", Run: harness.Colocation}}
	case *reSweep:
		exps = []harness.Experiment{{ID: "realloc", Run: harness.ReallocSweep}}
	case *sweep:
		exps = []harness.Experiment{{ID: "faults", Run: harness.FaultsSweep}}
	case *only != "":
		if exps, err = harness.Select(strings.Split(*only, ",")...); err != nil {
			fatal(err)
		}
		artsName = *only
	}
	if side {
		artsName = exps[0].ID
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	arts, closeArts, err := cc.Artifacts(artsName, opt.Scale)
	if err != nil {
		fatal(err)
	}
	defer closeArts()

	if !side {
		fmt.Fprintf(out, "# Affinity Alloc — regenerated evaluation (scale=%v, seed=%d)\n\n", opt.Scale, cc.Seed)
	}
	if err := harness.RunAll(opt, exps, out, os.Stderr, cc.Timing, arts); err != nil {
		failSummary(err)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "afftables:", err)
	os.Exit(1)
}

// failSummary writes a one-line failure summary: for cell failures, which
// cells died (their reasons are already in the report's FAILED markings);
// for anything else, the error itself.
func failSummary(err error) {
	var fails *harness.CellFailures
	if errors.As(err, &fails) {
		fmt.Fprintf(os.Stderr, "afftables: %d cell(s) failed: %s\n",
			len(fails.Cells), strings.Join(fails.Failed(), ", "))
		return
	}
	fmt.Fprintln(os.Stderr, "afftables:", err)
}
