// Package workloads implements the ten Table-3 benchmarks (plus the Fig-4
// vector-add microbenchmark), each runnable under all three §6
// configurations: In-Core (OOO cores + prefetchers, nothing offloaded),
// Near-L3 (streams offloaded, affinity-oblivious layout, original data
// structures), and Aff-Alloc (streams offloaded, affinity allocation,
// co-designed data structures).
//
// Every workload both computes its real result (stored in / checked
// against simulated memory or reference algorithms — the Checksum field)
// and drives the timing model, so layout changes can never silently break
// correctness.
package workloads

import (
	"hash/fnv"
	"math"

	"affinityalloc/internal/cpu"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/trace"
)

// Result is one run's outcome.
type Result struct {
	Name     string
	Mode     sys.Mode
	Metrics  sys.Metrics
	Checksum uint64
}

// Workload is one benchmark with fixed parameters.
type Workload interface {
	Name() string
	// Run allocates, initializes, executes and measures the workload on
	// a freshly built system.
	Run(s *sys.System, mode sys.Mode) (Result, error)
}

// Run builds a system from cfg and runs w under mode.
func Run(cfg sys.Config, w Workload, mode sys.Mode) (Result, error) {
	return RunTraced(cfg, w, mode, nil)
}

// RunTraced is Run with an optional trace recorder attached to the
// system's observer hooks before the workload executes (nil records
// nothing). Observation is outcome-only, so a recording run returns
// byte-identical Results to a direct run. The system is released once
// the Result is built: a Result holds copies of every counter, so the
// next run can reuse the machine's storage.
func RunTraced(cfg sys.Config, w Workload, mode sys.Mode, rec *trace.Recorder) (Result, error) {
	s, err := sys.New(cfg)
	if err != nil {
		return Result{}, err
	}
	rec.Begin(cfg, mode)
	rec.Attach(s)
	r, err := w.Run(s, mode)
	rec.Finish(uint64(r.Metrics.Cycles))
	s.Release()
	return r, err
}

// checksum hashes a stream of words.
type checksum struct{ h uint64 }

func newChecksum() *checksum { return &checksum{h: 1469598103934665603} }

func (c *checksum) addU64(v uint64) {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	c.h = c.h*31 + h.Sum64()
}

func (c *checksum) addU32(v uint32)  { c.addU64(uint64(v)) }
func (c *checksum) addF32(v float32) { c.addU64(uint64(math.Float32bits(v))) }
func (c *checksum) sum() uint64      { return c.h }

// workloadSeed derives a workload-local RNG seed from the system's
// configured seed, so `-seed N` actually varies workload inputs while
// distinct workloads under one seed stay decorrelated (each passes its
// own salt). Seed 1 maps to the bare salt, preserving the historically
// committed seed-1 experiment numbers.
func workloadSeed(s *sys.System, salt int64) int64 {
	return (s.Cfg.Seed-1)*1000003 + salt
}

// coreFinish returns the drain time of the latest core.
func coreFinish(cores []*cpu.Core) engine.Time {
	var t engine.Time
	for _, c := range cores {
		if d := c.Drained(); d > t {
			t = d
		}
	}
	return t
}

// partition splits n items across k workers, returning worker w's
// half-open range.
func partition(n int64, k, w int) (lo, hi int64) {
	lo = n * int64(w) / int64(k)
	hi = n * int64(w+1) / int64(k)
	return lo, hi
}

// interleaved drives per-core work in round-robin chunks so concurrent
// cores contend for banks and links the way parallel execution would.
// next(core) processes one chunk for that core and reports whether the
// core has more work.
func interleaved(nCores int, next func(core int) bool) {
	live := make([]bool, nCores)
	remaining := nCores
	for i := range live {
		live[i] = true
	}
	for remaining > 0 {
		for c := 0; c < nCores; c++ {
			if live[c] && !next(c) {
				live[c] = false
				remaining--
			}
		}
	}
}

// chunkVerts is how many vertices a core advances per interleaved driver
// turn in the graph workloads.
const chunkVerts = 8

// opWindow bounds each core's outstanding indirect operations (the
// SEL3 per-stream request buffer; cf. Table 2's 12-stream SEcore).
const opWindow = 12
