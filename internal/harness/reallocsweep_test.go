package harness

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"testing"

	"affinityalloc/internal/faults"
	"affinityalloc/internal/realloc"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/workloads"
)

const goldenReallocPath = "testdata/golden_realloc_sweep.txt"

// TestGoldenReallocSweep pins the static-vs-dynamic table at tiny scale:
// two workloads (skew, bfs) on the clean and bank-kill machines. Any
// change to the reconciler's decisions — cadence, cost model, tie-breaks
// — or to the timing model shows up as a diff. To bless an intentional
// change:
//
//	go test ./internal/harness -run TestGoldenReallocSweep -update
func TestGoldenReallocSweep(t *testing.T) {
	fig, err := ReallocSweep(Options{Scale: Tiny, Seed: 1, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.Render(&buf)
	got := buf.Bytes()
	if *updateGolden {
		if err := os.WriteFile(goldenReallocPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenReallocPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenReallocPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("realloc sweep diverged from %s; if intentional, re-bless with -update.\nfirst divergence near: %s",
			goldenReallocPath, firstDiff(got, want))
	}
}

// TestReallocSweepByteIdenticalAcrossJobs renders the sweep serially and
// with maximum cell parallelism; the migration schedule (and so every
// byte of the table) must not notice.
func TestReallocSweepByteIdenticalAcrossJobs(t *testing.T) {
	render := func(jobs int) []byte {
		fig, err := ReallocSweep(Options{Scale: Tiny, Seed: 1, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		fig.Render(&buf)
		return buf.Bytes()
	}
	base := render(1)
	if par := render(8); !bytes.Equal(base, par) {
		t.Errorf("sweep differs between -j 1 and -j 8:\n%s", firstDiff(base, par))
	}
}

// reallocProbe runs BFS-tiny under all three modes and serializes
// everything observable — per-mode cycles and checksums plus the full
// telemetry metrics document — into one byte stream.
func reallocProbe(t *testing.T, opt Options) []byte {
	t.Helper()
	opt.Collect = &Collector{}
	g, gt := sharedGraph(opt)
	ms, err := runModesAll(opt, []workloads.Workload{workloads.BFS{G: g, GT: gt, Src: -1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, mode := range sys.Modes {
		r := ms[0][mode]
		fmt.Fprintf(&buf, "%v cycles=%d checksum=%x\n", mode, uint64(r.Metrics.Cycles), r.Checksum)
	}
	arts := &Artifacts{MetricsOut: &buf, Experiment: "realloc-probe", Scale: opt.Scale, Seed: opt.Seed}
	if err := arts.Write(opt.Collect.Cells()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReallocOffIsByteIdentical is the issue's byte-identity control: a
// disabled reconciler AND an armed-but-threshold=inf reconciler (the loop
// runs, observes telemetry at every epoch, and never acts) must leave
// cycles, checksums, and the entire metrics document byte-identical to a
// reconciler-free build — serial or parallel, clean machine or degraded.
func TestReallocOffIsByteIdentical(t *testing.T) {
	inf := realloc.Config{Epoch: 1500, Threshold: math.Inf(1)}.WithDefaults()
	for _, ft := range []struct {
		name string
		spec faults.Spec
	}{
		{"clean", faults.Spec{}},
		{"faulted", faults.Spec{Seed: 1, NDeadBanks: 1}},
	} {
		t.Run(ft.name, func(t *testing.T) {
			base := reallocProbe(t, Options{Scale: Tiny, Seed: 1, Jobs: 1, Faults: ft.spec})
			for _, jobs := range []int{1, 8} {
				for _, rc := range []struct {
					name string
					cfg  realloc.Config
				}{{"off", realloc.Config{}}, {"threshold-inf", inf}} {
					got := reallocProbe(t, Options{
						Scale: Tiny, Seed: 1, Jobs: jobs,
						Faults: ft.spec, Realloc: rc.cfg,
					})
					if !bytes.Equal(base, got) {
						t.Errorf("j=%d realloc=%s: output differs from the reconciler-free baseline:\n%s",
							jobs, rc.name, firstDiff(base, got))
					}
				}
			}
		})
	}
}
