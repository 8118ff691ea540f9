// Command affinityd serves affinity allocation as a long-running
// placement service: tenants register simulated machine topologies over
// the affinityd/v1 HTTP/JSON API, open interleave pools, and submit
// batched allocation requests carrying affinity hint graphs, receiving
// simulated base addresses and bank placements back. cmd/affload is the
// matching load generator.
//
// Usage:
//
//	affinityd [-addr 127.0.0.1:7077] [-seed N] [-policy hybrid5]
//	          [-faults dead-banks=2] [-journal DIR] [-journal-reset]
//	          [-fsync] [-queue-depth N] [-metrics-out m.json]
//	          [-pprof cpu.prof]
//
// The -seed/-policy/-faults flags are fleet defaults: a registration
// whose MachineSpec leaves those fields zero inherits them, so a whole
// load run can be degraded (-faults) or re-seeded from the server side.
//
// With -journal DIR the daemon is crash-safe: every committed batch is
// appended to a per-machine write-ahead journal under DIR before it
// executes, and a restart with the same -journal replays the journals
// to reconstruct byte-identical placement state. Verification happens
// before the listener opens (a corrupt journal refuses startup; pass
// -journal-reset to discard history deliberately); replay happens after,
// so /healthz answers immediately while /readyz reports not-ready until
// every machine has finished replaying. Each machine has one file in
// DIR, <id>.waj: an "affinityd-journal/v2 <id>" header line, then one
// binary frame per record whose length carries its own check, so a
// torn final frame is truncated and anything malformed before it
// refuses startup. Every 256 operation records the journal carries a
// snapshot record that replay checks the rebuilt state against. A
// journal in the older line-framed JSON format (affinityd-journal/v1)
// refuses startup by name; -journal-reset discards it. A <id>.snap file
// an older daemon left in DIR is ignored by recovery and deleted with
// the journal, on deregistration or -journal-reset.
//
// Endpoints: GET /healthz (liveness), GET /readyz (readiness — 503
// during journal replay and shutdown drain), GET /metricsz
// (schema-validated metrics document with p50/p99 placement-latency
// histograms), POST /v1/machines, GET/DELETE /v1/machines/{id}, POST
// /v1/machines/{id}/pools, POST /v1/machines/{id}/alloc, POST
// /v1/machines/{id}/free.
//
// The server sheds overload: each machine has a bounded admission queue
// (-queue-depth) and a full queue answers 503 + Retry-After instead of
// queueing unboundedly. Shutdown on SIGINT/SIGTERM is graceful: /readyz
// flips not-ready first, in-flight requests drain, machine workers
// stop, journals close, and -metrics-out (when set) receives the final
// metrics document.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"affinityalloc/internal/affinityd"
	"affinityalloc/internal/cliconf"
)

func main() {
	cc := cliconf.Register(flag.CommandLine,
		cliconf.FlagSeed|cliconf.FlagPolicy|cliconf.FlagFaults|cliconf.FlagMetricsOut|cliconf.FlagPprof)
	var (
		addr         = flag.String("addr", "127.0.0.1:7077", "listen address (host:port; port 0 picks a free port)")
		journalDir   = flag.String("journal", "", "write-ahead journal directory (empty = in-memory only)")
		journalReset = flag.Bool("journal-reset", false, "discard existing journals in -journal instead of recovering them")
		fsync        = flag.Bool("fsync", false, "fsync every journal append (power-loss durability)")
		queueDepth   = flag.Int("queue-depth", 0, "per-machine admission queue depth (0 = default 256)")
	)
	flag.Parse()

	if err := run(cc, *addr, *journalDir, *journalReset, *fsync, *queueDepth); err != nil {
		fmt.Fprintln(os.Stderr, errLine(err))
		os.Exit(1)
	}
}

// prefix starts every line the daemon prints. Errors from package
// affinityd carry it already, so errLine and phaseError strip it before
// the line adds it once: "affinityd: recovery: journal …", never
// "affinityd: recovery: affinityd: journal …".
const prefix = "affinityd: "

// errLine renders err as the daemon's stderr line.
func errLine(err error) string {
	return prefix + strings.TrimPrefix(err.Error(), prefix)
}

// phaseError names the phase of run an error came from.
type phaseError struct {
	phase string
	err   error
}

func (e *phaseError) Error() string {
	return e.phase + ": " + strings.TrimPrefix(e.err.Error(), prefix)
}

func (e *phaseError) Unwrap() error { return e.err }

func run(cc *cliconf.Config, addr, journalDir string, journalReset bool, fsync bool, queueDepth int) error {
	// Validate the fleet defaults up front so a bad -policy/-faults is
	// one named startup error, not a failure on every registration.
	if _, err := cc.Policy(); err != nil {
		return err
	}
	if _, err := cc.Faults(); err != nil {
		return err
	}
	stopProf, err := cc.StartProfile()
	if err != nil {
		return err
	}
	defer stopProf()

	if journalDir != "" {
		if err := os.MkdirAll(journalDir, 0o755); err != nil {
			return err
		}
		if journalReset {
			if err := affinityd.RemoveJournalDir(journalDir); err != nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "affinityd: journal directory reset, history discarded")
		}
	}

	srv := affinityd.NewServer(affinityd.Options{
		Defaults: affinityd.MachineSpec{
			Seed:   cc.Seed,
			Policy: cc.PolicyStr,
			Faults: cc.FaultsStr,
		},
		JournalDir: journalDir,
		SyncWrites: fsync,
		QueueDepth: queueDepth,
	})

	// Phase one of recovery runs before the listener opens: every
	// journal is verified end to end, and corruption refuses startup
	// loudly rather than serving a machine whose history is wrong.
	rec, err := srv.PrepareRecovery()
	if err != nil {
		return &phaseError{"recovery", err}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The resolved address goes to stdout so scripts driving "-addr
	// host:0" can discover the port.
	fmt.Printf("affinityd: listening on %s (%s)\n", ln.Addr(), affinityd.APIVersion)

	// Phase two replays the verified journals while the listener is
	// already answering: /healthz says alive, /readyz says not-ready,
	// and requests against a still-replaying machine get a retryable
	// 503, never a 404.
	hs := &http.Server{Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	replayDone := make(chan error, 1)
	go func() {
		stats, err := rec.Replay()
		if err == nil && stats.Machines > 0 {
			fmt.Printf("affinityd: recovered %s\n", stats)
		}
		if err != nil {
			// A replay failure is fatal: the affected machine would 503
			// forever. Shut down and surface the error as the exit status.
			fmt.Fprintln(os.Stderr, errLine(&phaseError{"recovery failed", err}))
			stop()
		}
		replayDone <- err
	}()

	shutdownDone := make(chan error, 1)
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "affinityd: shutting down")
		// Flip /readyz before draining so load balancers and retrying
		// clients move on while in-flight requests finish.
		srv.Drain()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- hs.Shutdown(sctx)
	}()

	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	if err := <-replayDone; err != nil {
		return &phaseError{"recovery", err}
	}
	if err := <-shutdownDone; err != nil {
		return &phaseError{"shutdown", err}
	}
	// Snapshot the document before Close: Close empties the machine
	// table, and the final export should still carry the per-machine
	// cells.
	doc := srv.MetricsDocument()
	srv.Close()

	if cc.MetricsOut != "" {
		f, err := os.Create(cc.MetricsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := doc.WriteJSON(f); err != nil {
			return err
		}
	}
	fmt.Printf("affinityd: served %d requests, goodbye\n", srv.Requests())
	return nil
}
