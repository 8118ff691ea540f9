// Command affload hammers a running affinityd with concurrent tenant
// streams of mixed alloc/free placement traffic and reports a
// latency/throughput table.
//
// Usage:
//
//	affload -addr http://127.0.0.1:7077 [-streams 4] [-ops 512]
//	        [-batch 16] [-seed N] [-timeout 30s]
//
//	affload -chaos -daemon ./affinityd -journal DIR [-kills 3]
//	        [-stalls 2] [-streams 4] [-ops 512] [-batch 16] [-seed N]
//
//	affload -trace run.afftrace [-batch 16] [-keep] [-timeout 30s]
//
// Each stream registers its own machine (tenant isolation) and drives a
// seeded, deterministic request sequence — the same -seed always sends
// the same placements, so runs are reproducible and comparable. Every
// batch carries a deterministic idempotency key, so the client's retry
// loop (backoff + jitter, honoring Retry-After) never double-allocates:
// a batch the server already committed returns its original placements.
// The summary's p50/p99 placement latency is sourced from the server's
// internal/telemetry histogram via /metricsz, not measured client-side;
// the per-stream columns are client-observed wire latencies.
//
// In -trace mode affload replays a recorded afftrace/v1 trace (affsim
// -record) against the daemon: each single-tenant scenario registers a
// machine shaped like the recording's, its allocator events are lowered
// to wire batches, and every wire placement is verified against a local
// trace.Replay of the same scenario — the wire≡library differential
// extended to recorded streams. Any divergence makes the run fail.
//
// In -chaos mode affload owns the daemon: it spawns the -daemon binary
// with a write-ahead journal, drives the streams while repeatedly
// kill -9ing and restarting it (and injecting SIGSTOP stalls), then
// proves convergence — every placement the turbulent run produced must
// be byte-identical to an uninterrupted in-process run of the same
// seeded streams, with no placement lost or duplicated.
//
// affload exits non-zero if no placement succeeded (or, under -chaos,
// if the converged state diverges from the clean oracle), so it doubles
// as a service smoke/chaos gate in CI.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"affinityalloc/internal/affinityd"
	"affinityalloc/internal/cliconf"
	"affinityalloc/internal/stats"
	"affinityalloc/internal/telemetry"
	"affinityalloc/internal/trace"
)

func main() {
	cc := cliconf.Register(flag.CommandLine, cliconf.FlagSeed)
	var (
		addr    = flag.String("addr", "http://127.0.0.1:7077", "affinityd base URL")
		streams = flag.Int("streams", 4, "concurrent tenant streams (one machine each)")
		ops     = flag.Int("ops", 512, "allocation requests per stream")
		batch   = flag.Int("batch", 16, "allocation requests per wire batch")
		keep    = flag.Bool("keep", false, "leave the tenant machines registered after the run")
		timeout = flag.Duration("timeout", affinityd.DefaultRequestTimeout, "per-request deadline")

		traceIn = flag.String("trace", "", "replay a recorded afftrace/v1 trace against the daemon, verifying wire placements against a local replay")

		chaos   = flag.Bool("chaos", false, "chaos mode: spawn -daemon, kill/stall it mid-stream, prove convergence")
		daemon  = flag.String("daemon", "", "path to the affinityd binary (chaos mode)")
		journal = flag.String("journal", "", "journal directory for the spawned daemon (chaos mode; default a temp dir)")
		kills   = flag.Int("kills", 3, "kill -9/restart cycles to inject (chaos mode)")
		stalls  = flag.Int("stalls", 2, "SIGSTOP/SIGCONT stalls to inject (chaos mode)")
	)
	flag.Parse()

	var err error
	switch {
	case *chaos:
		err = runChaos(chaosConfig{
			seed: cc.Seed, daemon: *daemon, journal: *journal,
			streams: *streams, ops: *ops, batch: *batch,
			kills: *kills, stalls: *stalls, timeout: *timeout,
		})
	case *traceIn != "":
		err = runTrace(*addr, *traceIn, *batch, *keep, *timeout)
	default:
		err = run(cc.Seed, *addr, *streams, *ops, *batch, *keep, *timeout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "affload:", err)
		os.Exit(1)
	}
}

// streamStats is one tenant stream's outcome.
type streamStats struct {
	machineID string
	batches   int
	allocs    int
	frees     int
	errors    int
	wall      time.Duration
	lat       telemetry.Hist // client-observed wire latency per batch, ns
	err       error
	// placements/freed are the per-ID outcomes the stream observed,
	// collected for the chaos differential. A replayed (deduped) batch
	// must return byte-identical placements, so conflicting duplicates
	// are recorded as an error.
	placements map[string]affinityd.Placement
	freed      map[string]string
	// stepsDone counts the steps the stream has finished; the chaos
	// schedule reads it while the stream runs.
	stepsDone atomic.Int64
}

func run(seed int64, addr string, streams, ops, batchSize int, keep bool, timeout time.Duration) error {
	if streams < 1 || ops < 1 || batchSize < 1 {
		return fmt.Errorf("want -streams/-ops/-batch >= 1, got %d/%d/%d", streams, ops, batchSize)
	}
	ctx := context.Background()
	client := affinityd.NewClient(addr)
	client.Timeout = timeout
	if !client.Healthy(ctx) {
		return fmt.Errorf("no affinityd answering at %s (is it running?)", addr)
	}

	all := make([]streamStats, streams)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			driveStream(ctx, client, &all[stream], seed, stream, ops, batchSize)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	// The headline latency numbers come from the server's telemetry
	// histogram, scraped once after the run.
	doc, derr := client.Metrics(ctx)

	if !keep {
		for i := range all {
			if all[i].machineID != "" {
				if err := client.Deregister(ctx, all[i].machineID); err != nil {
					fmt.Fprintln(os.Stderr, "affload: deregister:", err)
				}
			}
		}
	}

	tbl := stats.NewTable(
		fmt.Sprintf("affload: %d streams x %d ops (batch %d, seed %d) against %s", streams, ops, batchSize, seed, addr),
		"stream", "machine", "batches", "allocs", "frees", "errors", "wall", "req/s", "wire.p50", "wire.p99")
	totalAllocs, totalFrees, totalErrors := 0, 0, 0
	for i := range all {
		st := &all[i]
		if st.err != nil {
			tbl.AddRow(i, "FAILED", "-", "-", "-", "-", "-", "-", "-", "-")
			fmt.Fprintf(os.Stderr, "affload: stream %d: %v\n", i, st.err)
			continue
		}
		totalAllocs += st.allocs
		totalFrees += st.frees
		totalErrors += st.errors
		reqs := float64(st.allocs + st.frees)
		tbl.AddRow(i, st.machineID, st.batches, st.allocs, st.frees, st.errors,
			fmt.Sprintf("%.2fs", st.wall.Seconds()),
			fmt.Sprintf("%.0f", reqs/st.wall.Seconds()),
			dur(st.lat.Quantile(0.50)), dur(st.lat.Quantile(0.99)))
	}
	tbl.Render(os.Stdout)

	fmt.Printf("\ntotal: %d successful placements, %d frees, %d request errors in %.2fs (%.0f placements/s)\n",
		totalAllocs, totalFrees, totalErrors, wall.Seconds(), float64(totalAllocs)/wall.Seconds())
	if retries := client.Retries(); retries > 0 {
		fmt.Printf("client retries: %d\n", retries)
	}
	if derr != nil {
		fmt.Fprintln(os.Stderr, "affload: metrics scrape failed:", derr)
	} else if line, ok := serverLatencyLine(doc); ok {
		fmt.Println(line)
	}

	if totalAllocs == 0 {
		return fmt.Errorf("no placement succeeded")
	}
	return nil
}

// driveStream runs one tenant: register a machine, push the seeded
// stream in batches with idempotency keys, count outcomes into st.
func driveStream(ctx context.Context, client *affinityd.Client, st *streamStats, seed int64, stream, ops, batchSize int) {
	reg, err := client.Register(ctx, affinityd.MachineSpec{Seed: seed + int64(stream)})
	if err != nil {
		st.err = err
		return
	}
	driveSteps(ctx, client, st, reg.MachineID, affinityd.StreamSteps(seed, stream, ops, batchSize), 0)
}

// driveSteps pushes wire rounds — a seeded stream's or a lowered trace
// scenario's — at an already-registered machine (chaos mode registers
// machines itself, before turbulence starts, because registration is
// the one call without an idempotency key). A non-zero pace sleeps
// between steps — chaos mode uses it to stretch the stream across the
// whole turbulence schedule.
func driveSteps(ctx context.Context, client *affinityd.Client, st *streamStats, machineID string, steps []affinityd.TraceStep, pace time.Duration) {
	st.machineID = machineID
	st.placements = make(map[string]affinityd.Placement)
	st.freed = make(map[string]string)
	start := time.Now()
	for i, step := range steps {
		for _, il := range step.Pools {
			if _, err := client.OpenPool(ctx, machineID, il); err != nil {
				st.err = err
				return
			}
		}
		if len(step.Allocs) > 0 {
			t0 := time.Now()
			resp, err := client.Alloc(ctx, machineID, step.AllocBatch, step.Allocs)
			st.lat.Observe(uint64(time.Since(t0)))
			if err != nil {
				st.err = err
				return
			}
			st.batches++
			for _, p := range resp.Placements {
				if prev, dup := st.placements[p.ID]; dup && !placementEqual(prev, p) {
					st.err = fmt.Errorf("duplicate placement for %q diverges: %+v vs %+v", p.ID, prev, p)
					return
				}
				st.placements[p.ID] = p
				if p.Error != "" {
					st.errors++
				} else {
					st.allocs++
				}
			}
		}
		if len(step.Frees) > 0 {
			t0 := time.Now()
			fresp, err := client.Free(ctx, machineID, step.FreeBatch, step.Frees)
			st.lat.Observe(uint64(time.Since(t0)))
			if err != nil {
				st.err = err
				return
			}
			for _, r := range fresp.Results {
				st.freed[r.ID] = r.Error
				if r.Error != "" {
					st.errors++
				} else {
					st.frees++
				}
			}
		}
		st.stepsDone.Store(int64(i + 1))
		if pace > 0 && i < len(steps)-1 {
			select {
			case <-time.After(pace):
			case <-ctx.Done():
				st.err = ctx.Err()
				return
			}
		}
	}
	st.wall = time.Since(start)
}

// runTrace replays a recorded trace against a live daemon and verifies
// the wire≡library differential on every placement: each single-tenant
// scenario is lowered to wire batches (affinityd.StepsFromScenario),
// driven at a machine registered with the recording's spec, and the
// returned placements are diffed against a local trace.Replay of the
// same scenario. Multi-tenant scenarios (trace compositions) are
// skipped — the wire serves one tenant per machine.
func runTrace(addr, path string, batchSize int, keep bool, timeout time.Duration) error {
	tr, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	if len(tr.Scenarios) == 0 {
		return fmt.Errorf("%s: trace has no scenarios", path)
	}
	ctx := context.Background()
	client := affinityd.NewClient(addr)
	client.Timeout = timeout
	if !client.Healthy(ctx) {
		return fmt.Errorf("no affinityd answering at %s (is it running?)", addr)
	}

	tbl := stats.NewTable(
		fmt.Sprintf("affload: trace replay of %s (%d scenarios) against %s", path, len(tr.Scenarios), addr),
		"scenario", "machine", "batches", "allocs", "frees", "errors", "placements")
	driven, diverged, skipped := 0, 0, 0
	var firstErr error
	fail := func(label string, err error) {
		tbl.AddRow(label, "FAILED", "-", "-", "-", "-", err.Error())
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, sc := range tr.Scenarios {
		if sc.NumTenants() > 1 {
			skipped++
			tbl.AddRow(sc.Label, "-", "-", "-", "-", "-", fmt.Sprintf("SKIPPED (%d tenants)", sc.NumTenants()))
			continue
		}
		steps, err := affinityd.StepsFromScenario(sc, batchSize)
		if err != nil {
			if errors.Is(err, affinityd.ErrNotWireExpressible) {
				// Forced-bank scenarios (delta sweeps) have no wire form;
				// they are skipped, not counted against the differential.
				skipped++
				tbl.AddRow(sc.Label, "-", "-", "-", "-", "-", "SKIPPED (not wire-expressible)")
				continue
			}
			fail(sc.Label, err)
			continue
		}
		reg, err := client.Register(ctx, affinityd.MachineSpec{
			MeshW: sc.MeshW, MeshH: sc.MeshH, Seed: sc.Seed,
			Policy: sc.Policy, Faults: sc.Faults,
		})
		if err != nil {
			fail(sc.Label, err)
			continue
		}
		var st streamStats
		driveSteps(ctx, client, &st, reg.MachineID, steps, 0)
		if !keep {
			if derr := client.Deregister(ctx, reg.MachineID); derr != nil {
				fmt.Fprintln(os.Stderr, "affload: deregister:", derr)
			}
		}
		if st.err != nil {
			fail(sc.Label, st.err)
			continue
		}
		res, err := trace.Replay(sc, trace.Options{})
		if err != nil {
			fail(sc.Label, fmt.Errorf("local replay: %w", err))
			continue
		}
		diffs, err := affinityd.DiffReplay(sc, res, st.placements)
		if err != nil {
			fail(sc.Label, err)
			continue
		}
		driven++
		status := "MATCH"
		if len(diffs) > 0 {
			diverged++
			status = fmt.Sprintf("DIVERGE (%d)", len(diffs))
			for _, d := range diffs {
				fmt.Fprintf(os.Stderr, "affload: %s: %s\n", sc.Label, d)
			}
		}
		tbl.AddRow(sc.Label, reg.MachineID, st.batches, st.allocs, st.frees, st.errors, status)
	}
	tbl.Render(os.Stdout)
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "affload: skipped %d scenario(s) with no wire form (multi-tenant or forced-bank)\n", skipped)
	}
	if diverged > 0 {
		return fmt.Errorf("trace replay: %d of %d scenario(s) diverged from the local replay", diverged, driven)
	}
	if firstErr != nil {
		return firstErr
	}
	if driven == 0 {
		return fmt.Errorf("%s: no single-tenant scenario to replay", path)
	}
	return nil
}

// serverLatencyLine derives the p50/p99 placement latency from the
// server's published histogram series — the telemetry-sourced numbers
// the run is judged by.
func serverLatencyLine(doc *telemetry.Document) (string, bool) {
	for _, c := range doc.Cells {
		if c.Label != "affinityd" {
			continue
		}
		counts, ok := c.Series["placement_latency_ns"]
		if !ok {
			return "", false
		}
		n := c.Scalars["placement_latency_ns_total"]
		return fmt.Sprintf("placement latency (server, internal/telemetry): p50=%s p99=%s over %d placements",
			dur(telemetry.HistQuantile(counts, 0.50)), dur(telemetry.HistQuantile(counts, 0.99)), n), true
	}
	return "", false
}

// dur renders nanoseconds compactly.
func dur(ns uint64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
