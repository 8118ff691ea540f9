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
// Experiments run concurrently across -j worker goroutines and their
// figures are written in registry order, so the report — and the
// -metrics-out / -trace-out files — are byte-identical for every -j.
// Per-experiment timing goes to stderr, never into the report.
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

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	exp := "all"
	if *only != "" {
		exp = *only
	}
	arts, closeArts, err := cc.Artifacts(exp, opt.Scale)
	if err != nil {
		fatal(err)
	}
	defer closeArts()

	if *coloc {
		fig, err := harness.Colocation(opt)
		if err != nil {
			failSummary(err)
			os.Exit(1)
		}
		fig.Render(out)
		return
	}

	if *reSweep {
		// Like -faults-sweep, per-cell failures render as FAILED(<reason>)
		// cells and only flip the exit status.
		fig, err := harness.ReallocSweep(opt)
		if fig != nil {
			fig.Render(out)
		}
		if err != nil {
			failSummary(err)
			os.Exit(1)
		}
		return
	}

	if *sweep {
		// The sweep tolerates per-cell failures: the table renders with
		// FAILED(<reason>) cells and the exit status stays non-zero.
		fig, err := harness.FaultsSweep(opt)
		if fig != nil {
			fig.Render(out)
		}
		if err != nil {
			failSummary(err)
			os.Exit(1)
		}
		return
	}

	fmt.Fprintf(out, "# Affinity Alloc — regenerated evaluation (scale=%v, seed=%d)\n\n", opt.Scale, cc.Seed)
	if err := harness.RunAll(opt, out, want, os.Stderr, cc.Timing, arts); err != nil {
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
