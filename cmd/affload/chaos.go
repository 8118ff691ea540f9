package main

// Chaos mode: affload owns a journaled affinityd, drives the seeded
// streams at it, and keeps killing it mid-stream. The daemon is spawned
// as a real process and killed with SIGKILL — no cooperation, no
// graceful anything — then restarted on the same journal directory and
// the same address. SIGSTOP/SIGCONT stalls exercise the client's
// deadline/retry path without a restart. The run converges when every
// stream completes; convergence is then *proved* two ways:
//
//  1. Differential: the same seeded streams are driven, uninterrupted,
//     against an in-process clean server, and every per-ID placement
//     and free outcome must match the turbulent run byte for byte.
//     Determinism makes this exact — crash-recovery replay plus client
//     retries with idempotency keys must be invisible in the results.
//  2. Counters: each machine's final alloc/free counters (rebuilt from
//     the journal by the last recovery) must equal the unique
//     successful placements and frees the client observed — nothing
//     lost, nothing double-counted.

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"time"

	"affinityalloc/internal/affinityd"
)

type chaosConfig struct {
	seed    int64
	daemon  string // path to the affinityd binary
	journal string // journal dir (empty = temp dir)
	streams int
	ops     int
	batch   int
	kills   int
	stalls  int
	timeout time.Duration
}

// daemonProc is one incarnation of the spawned daemon.
type daemonProc struct {
	bin     string
	journal string
	addr    string // fixed after the first start; restarts rebind it
	cmd     *exec.Cmd
}

// start spawns the daemon and waits for its listen line. The first
// start uses port 0 and captures the kernel-assigned address; restarts
// rebind the same address so the client's base URL survives the kill.
func (d *daemonProc) start() error {
	addr := d.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	cmd := exec.Command(d.bin, "-addr", addr, "-journal", d.journal)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	listen := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "affinityd: listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case listen <- a:
				default:
				}
			}
			fmt.Fprintln(os.Stderr, "daemon:", line)
		}
	}()
	select {
	case a := <-listen:
		d.addr = a
		d.cmd = cmd
		return nil
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return fmt.Errorf("daemon did not report a listen address within 15s")
	}
}

// kill9 SIGKILLs the daemon — the crash under test — and reaps it.
func (d *daemonProc) kill9() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// stall freezes the daemon with SIGSTOP for dur, then resumes it:
// in-flight requests hang, queued ones pile up, and the client's
// retry/deadline path absorbs it without a restart.
func (d *daemonProc) stall(dur time.Duration) {
	if syscall.Kill(d.cmd.Process.Pid, syscall.SIGSTOP) != nil {
		return
	}
	time.Sleep(dur)
	_ = syscall.Kill(d.cmd.Process.Pid, syscall.SIGCONT)
}

// waitReady polls /readyz until the daemon serves traffic (journal
// replay included) or the deadline passes.
func waitReady(client *affinityd.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		ready := client.Ready(ctx)
		cancel()
		if ready {
			return nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("daemon not ready within %v", timeout)
}

func runChaos(cfg chaosConfig) error {
	if cfg.daemon == "" {
		return fmt.Errorf("-chaos needs -daemon (path to the affinityd binary)")
	}
	if cfg.streams < 1 || cfg.ops < 1 || cfg.batch < 1 {
		return fmt.Errorf("want -streams/-ops/-batch >= 1, got %d/%d/%d", cfg.streams, cfg.ops, cfg.batch)
	}
	if cfg.journal == "" {
		dir, err := os.MkdirTemp("", "affinityd-chaos-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.journal = dir
	}

	d := &daemonProc{bin: cfg.daemon, journal: cfg.journal}
	if err := d.start(); err != nil {
		return err
	}
	defer d.kill9()

	client := affinityd.NewClient("http://" + d.addr)
	client.Timeout = cfg.timeout
	// Chaos-length waits: a request that lands just before a kill waits
	// out the restart+replay window through the retry loop.
	client.MaxRetries = 64
	if err := waitReady(client, 15*time.Second); err != nil {
		return err
	}

	// Register every machine before the turbulence starts: registration
	// is the one call without an idempotency key, so it must not race a
	// kill. Everything after this line may be interrupted arbitrarily.
	machineIDs := make([]string, cfg.streams)
	for i := range machineIDs {
		reg, err := client.Register(context.Background(), affinityd.MachineSpec{Seed: cfg.seed + int64(i)})
		if err != nil {
			return fmt.Errorf("register stream %d: %w", i, err)
		}
		machineIDs[i] = reg.MachineID
	}

	// The chaos schedule: interleave kills and stalls at randomized
	// intervals while the streams run. The interval RNG is seeded for
	// repeatability of the schedule shape; actual interleaving with the
	// streams is wall-clock nondeterminism — that's the point. Event k
	// of n also waits until every stream has finished k/(n+1) of its
	// steps, so the schedule spreads over the run however fast the
	// daemon serves, and a longer run (-ops) puts each kill behind more
	// journal records — past a snapshot record, given enough of them.
	rng := rand.New(rand.NewSource(cfg.seed))
	events := make([]bool, 0, cfg.kills+cfg.stalls) // true = kill
	for i := 0; i < cfg.kills; i++ {
		events = append(events, true)
	}
	for i := 0; i < cfg.stalls; i++ {
		events = append(events, false)
	}
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })

	// Pace the streams to outlast the schedule: each event costs at most
	// its ~350ms gap plus (for a kill) the dark window, restart, and
	// replay — call it a second. An unpaced stream finishes in tens of
	// milliseconds and the turbulence would land on an idle daemon,
	// proving nothing.
	steps := (cfg.ops + cfg.batch - 1) / cfg.batch
	var pace time.Duration
	if len(events) > 0 && steps > 1 {
		pace = time.Duration(len(events)) * 1350 * time.Millisecond / time.Duration(steps-1)
	}

	all := make([]streamStats, cfg.streams)
	done := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.streams; i++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			driveSteps(context.Background(), client, &all[stream], machineIDs[stream],
				affinityd.StreamSteps(cfg.seed, stream, cfg.ops, cfg.batch), pace)
		}(i)
	}
	go func() { wg.Wait(); close(done) }()

	kills, stalls := 0, 0
chaosLoop:
	for k, isKill := range events {
		select {
		case <-done:
			break chaosLoop
		case <-time.After(time.Duration(100+rng.Intn(250)) * time.Millisecond):
		}
		share := int64((k + 1) * steps / (len(events) + 1))
		for !allPassed(all, share) {
			select {
			case <-done:
				break chaosLoop
			case <-time.After(5 * time.Millisecond):
			}
		}
		if isKill {
			kills++
			fmt.Fprintf(os.Stderr, "chaos: kill -9 #%d\n", kills)
			d.kill9()
			// Brief dark window so in-flight requests really fail over.
			time.Sleep(time.Duration(20+rng.Intn(80)) * time.Millisecond)
			if err := d.start(); err != nil {
				return fmt.Errorf("restart after kill %d: %w", kills, err)
			}
			if err := waitReady(client, 30*time.Second); err != nil {
				return fmt.Errorf("after kill %d: %w", kills, err)
			}
		} else {
			stalls++
			fmt.Fprintf(os.Stderr, "chaos: stall #%d\n", stalls)
			d.stall(time.Duration(150+rng.Intn(200)) * time.Millisecond)
		}
	}
	<-done
	wall := time.Since(start)

	// A failed stream stops short of the schedule's next share, so its
	// error is reported first.
	totalAllocs, totalFrees := 0, 0
	for i := range all {
		if all[i].err != nil {
			return fmt.Errorf("stream %d failed under chaos: %w", i, all[i].err)
		}
		totalAllocs += all[i].allocs
		totalFrees += all[i].frees
	}
	// A run that converged before the schedule finished didn't test what
	// it claims to — refuse to report success for it.
	if kills < cfg.kills || stalls < cfg.stalls {
		return fmt.Errorf("streams converged before the schedule fired (%d/%d kills, %d/%d stalls) — raise -ops or lower -kills/-stalls",
			kills, cfg.kills, stalls, cfg.stalls)
	}
	fmt.Printf("chaos: %d streams x %d ops converged through %d kills and %d stalls in %.2fs (%d placements, %d frees, %d client retries)\n",
		cfg.streams, cfg.ops, kills, stalls, wall.Seconds(), totalAllocs, totalFrees, client.Retries())

	// Counter check: the recovered daemon's per-machine counters must
	// equal the unique outcomes the client observed — nothing lost to a
	// kill, nothing double-counted by a retry.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, id := range machineIDs {
		st := &all[i]
		info, err := client.MachineInfo(ctx, id)
		if err != nil {
			return fmt.Errorf("machine %s info: %w", id, err)
		}
		wantLive := st.allocs - st.frees
		if int(info.Allocs) != st.allocs || int(info.Frees) != st.frees || info.LiveHandles != wantLive {
			return fmt.Errorf("machine %s diverged: server allocs/frees/live = %d/%d/%d, client observed %d/%d/%d",
				id, info.Allocs, info.Frees, info.LiveHandles, st.allocs, st.frees, wantLive)
		}
	}

	// Metrics document must still validate after all that.
	if _, err := client.Metrics(ctx); err != nil {
		return fmt.Errorf("final metrics document: %w", err)
	}

	// Differential: an uninterrupted in-process run of the same seeded
	// streams must produce byte-identical per-ID outcomes.
	oracle, err := cleanOracle(cfg)
	if err != nil {
		return fmt.Errorf("clean oracle: %w", err)
	}
	for i := range all {
		if err := diffOutcomes(i, &all[i], &oracle[i]); err != nil {
			return err
		}
	}
	fmt.Printf("chaos: converged — %d placements across %d streams byte-identical to the uninterrupted oracle\n",
		totalAllocs, cfg.streams)
	return nil
}

// allPassed reports whether every stream has finished at least n steps.
func allPassed(all []streamStats, n int64) bool {
	for i := range all {
		if all[i].stepsDone.Load() < n {
			return false
		}
	}
	return true
}

// cleanOracle drives the identical seeded streams against a fresh
// in-process server with no journal, no kills, no retries needed.
func cleanOracle(cfg chaosConfig) ([]streamStats, error) {
	srv := affinityd.NewServer(affinityd.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := affinityd.NewClient(ts.URL)

	out := make([]streamStats, cfg.streams)
	for i := 0; i < cfg.streams; i++ {
		reg, err := client.Register(context.Background(), affinityd.MachineSpec{Seed: cfg.seed + int64(i)})
		if err != nil {
			return nil, err
		}
		driveSteps(context.Background(), client, &out[i], reg.MachineID, affinityd.StreamSteps(cfg.seed, i, cfg.ops, cfg.batch), 0)
		if out[i].err != nil {
			return nil, fmt.Errorf("oracle stream %d: %w", i, out[i].err)
		}
	}
	return out, nil
}

// diffOutcomes compares a chaos stream's observed outcomes against the
// oracle's, per request ID.
func diffOutcomes(stream int, got, want *streamStats) error {
	if len(got.placements) != len(want.placements) {
		return fmt.Errorf("stream %d: %d placements under chaos, oracle has %d",
			stream, len(got.placements), len(want.placements))
	}
	for id, wp := range want.placements {
		gp, ok := got.placements[id]
		if !ok {
			return fmt.Errorf("stream %d: placement %q lost under chaos", stream, id)
		}
		if !placementEqual(gp, wp) {
			return fmt.Errorf("stream %d: placement %q diverged under chaos:\n  chaos:  %+v\n  oracle: %+v",
				stream, id, gp, wp)
		}
	}
	if len(got.freed) != len(want.freed) {
		return fmt.Errorf("stream %d: %d free results under chaos, oracle has %d",
			stream, len(got.freed), len(want.freed))
	}
	for id, werr := range want.freed {
		gerr, ok := got.freed[id]
		if !ok {
			return fmt.Errorf("stream %d: free result %q lost under chaos", stream, id)
		}
		if gerr != werr {
			return fmt.Errorf("stream %d: free %q diverged under chaos: %q vs oracle %q", stream, id, gerr, werr)
		}
	}
	return nil
}

// placementEqual compares two placements field by field (Banks slice
// included).
func placementEqual(a, b affinityd.Placement) bool {
	return reflect.DeepEqual(a, b)
}
