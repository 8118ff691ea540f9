package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"affinityalloc/internal/core"
	"affinityalloc/internal/harness"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/workloads"
)

// simCell is one (benchmark × mode) run on a fresh system.
type simCell struct {
	Bench string
	Mode  sys.Mode
	New   time.Duration // sys.New
	Run   time.Duration // Workload.Run
	NewMB float64       // bytes sys.New allocated; traced passes only
	Res   workloads.Result
}

// simPass is one walk over a workload's benchmarks under every mode.
type simPass struct {
	Cost   hostCost
	Cells  []simCell
	Calls  allocCalls
	Errors []string
}

// allocCalls is a counting core.Observer: how often the simulated
// program called each allocator entry point.
type allocCalls struct{ Affine, Near, Base, Free, Pools int }

func (c *allocCalls) ObserveOpenPool(int) { c.Pools++ }
func (c *allocCalls) ObserveAffine(core.AffineSpec, int, *core.ArrayInfo, error) {
	c.Affine++
}
func (c *allocCalls) ObserveNear(int64, []memsim.Addr, int, memsim.Addr, int, error) {
	c.Near++
}
func (c *allocCalls) ObserveBase(int64, memsim.Addr, error) { c.Base++ }
func (c *allocCalls) ObserveFree(memsim.Addr, error)        { c.Free++ }

// newSystem builds the Table-2 machine the harness builds for a seed.
func newSystem(seed int64) (*sys.System, error) {
	cfg := sys.DefaultConfig()
	cfg.Seed = seed
	return sys.New(cfg)
}

// runSimPass runs every benchmark under every mode, each on a fresh
// system, on this goroutine. With a tracer it records
// pass → cell → {sys.New, Workload.Run} and counts allocator calls.
func runSimPass(ws []workloads.Workload, seed int64, tr *tracer, id int) simPass {
	var p simPass
	p.Cost = measure(func() {
		root := tr.begin("pass", -1, id)
		for _, w := range ws {
			for _, mode := range sys.Modes {
				c := simCell{Bench: w.Name(), Mode: mode}
				cell := tr.begin("cell "+c.Bench+"/"+mode.String(), root, id)

				var m0, m1 runtime.MemStats
				if tr != nil {
					runtime.ReadMemStats(&m0)
				}
				sp := tr.begin("sys.New", cell, id)
				t0 := time.Now()
				s, err := newSystem(seed)
				c.New = time.Since(t0)
				tr.end(sp)
				if err != nil {
					p.Errors = append(p.Errors, fmt.Sprintf("%s/%v: sys.New: %v", c.Bench, mode, err))
					tr.end(cell)
					continue
				}
				if tr != nil {
					runtime.ReadMemStats(&m1)
					c.NewMB = float64(m1.TotalAlloc-m0.TotalAlloc) / mb
					s.RT.SetObserver(&p.Calls)
				}

				sp = tr.begin("Workload.Run", cell, id)
				t0 = time.Now()
				c.Res, err = w.Run(s, mode)
				c.Run = time.Since(t0)
				tr.end(sp)
				tr.end(cell)
				if err != nil {
					p.Errors = append(p.Errors, fmt.Sprintf("%s/%v: %v", c.Bench, mode, err))
					continue
				}
				p.Cells = append(p.Cells, c)
			}
		}
		tr.end(root)
	})
	return p
}

// digest hashes every simulated statistic of the pass's cells.
func (p *simPass) digest() string {
	h := sha256.New()
	for _, c := range p.Cells {
		m := c.Res.Metrics
		fmt.Fprintf(h, "%s/%v cycles=%d traffic=%v flit_hops=%d link_flits=%d links=%d l3=%d/%d dram=%d energy=%v checksum=%x\n",
			c.Bench, c.Mode, uint64(m.Cycles), m.Traffic, m.FlitHops, m.LinkFlits, m.Links,
			m.L3Accesses, m.L3Misses, m.DRAMAccesses, m.Energy, c.Res.Checksum)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check counts the pass's operations into r: one per cell, plus one for
// the digest, which must equal that of the first pass checked. That
// pass also supplies the run's speed-up ratios.
func (p *simPass) check(r *result, cells int) {
	r.Attempted += cells + 1
	for _, e := range p.Errors {
		r.fail("%s", e)
	}
	first := map[string]uint64{}
	for _, c := range p.Cells {
		sum, seen := first[c.Bench]
		if !seen {
			first[c.Bench] = c.Res.Checksum
		} else if c.Res.Checksum != sum {
			r.fail("%s/%v: checksum %x differs from %x under the first mode", c.Bench, c.Mode, c.Res.Checksum, sum)
		}
	}
	if got := p.digest(); r.Digest == "" {
		r.Digest, r.Ratios = got, p.affRatios()
	} else if got != r.Digest {
		r.fail("sim_digest %s differs from the first pass's %s", got[:12], r.Digest[:12])
	}
}

// affRatios returns Near-L3 cycles ÷ Aff-Alloc cycles per benchmark.
func (p *simPass) affRatios() map[string]float64 {
	cycles := map[string]map[sys.Mode]float64{}
	for _, c := range p.Cells {
		if cycles[c.Bench] == nil {
			cycles[c.Bench] = map[sys.Mode]float64{}
		}
		cycles[c.Bench][c.Mode] = float64(c.Res.Metrics.Cycles)
	}
	out := map[string]float64{}
	for b, m := range cycles {
		if m[sys.AffAlloc] > 0 && m[sys.NearL3] > 0 {
			out[b] = m[sys.NearL3] / m[sys.AffAlloc]
		}
	}
	return out
}

func (p *simPass) simCycles() float64 {
	var sum float64
	for _, c := range p.Cells {
		sum += float64(c.Res.Metrics.Cycles)
	}
	return sum
}

// geomeanOf is the geometric mean of ratios over the named benchmarks,
// in that order so that the floating-point sum repeats exactly.
func geomeanOf(ratios map[string]float64, benches []string) float64 {
	vals := make([]float64, 0, len(benches))
	for _, b := range benches {
		vals = append(vals, ratios[b])
	}
	return geomean(vals)
}

// runSim runs sim_affine or sim_irregular: the named benchmarks from
// harness.AllWorkloads at the sizing's scale × sys.Modes, one goroutine,
// a fresh sys.New per cell.
func runSim(name string, benches []string, seed int64, sz sizing, traced bool) (*result, error) {
	r := newResult(name, seed)

	setupStart := time.Now()
	byName := map[string]workloads.Workload{}
	for _, w := range harness.AllWorkloads(harness.Options{Scale: sz.Scale, Seed: seed}) {
		byName[w.Name()] = w
	}
	ws := make([]workloads.Workload, 0, len(benches))
	for _, b := range benches {
		w, ok := byName[b]
		if !ok {
			return nil, fmt.Errorf("harness.AllWorkloads has no benchmark %q", b)
		}
		ws = append(ws, w)
	}
	cells := len(ws) * len(sys.Modes)
	if sz.Warmup {
		warm := runSimPass(ws, seed, nil, 0)
		warm.check(r, cells)
	}
	setup := time.Since(setupStart)

	var plain, spanned []simPass
	if traced {
		r.tr = newTracer()
	}
	timedLoop(sz.Budget, sz.MinPasses, func(i int) {
		for _, tr := range r.tracers() {
			p := runSimPass(ws, seed, tr, i+1)
			p.check(r, cells)
			if tr != nil {
				spanned = append(spanned, p)
			} else {
				plain = append(plain, p)
			}
		}
	})

	var costs []hostCost
	var rate []float64
	for _, p := range plain {
		costs = append(costs, p.Cost)
		rate = append(rate, p.simCycles()/seconds(p.Cost.Wall))
	}
	wall, allocMB, _, _ := costColumns(costs)
	r.Values["setup_s"] = seconds(setup)
	r.Values["wall_s"] = median(wall)
	r.Values["sim_cycles_per_s"] = median(rate)
	r.Values["alloc_mb"] = median(allocMB)
	r.Values["aff_speedup_geomean"] = geomeanOf(r.Ratios, benches)
	if traced {
		simLayers(r, plain, spanned, benches)
	}
	return r, nil
}

// simLayers fills the per-layer metrics a simulator workload owns from
// its traced passes.
func simLayers(r *result, plain, spanned []simPass, benches []string) {
	var plainCosts, costs []hostCost
	for _, p := range plain {
		plainCosts = append(plainCosts, p.Cost)
	}
	var newMS, newMB, newShare []float64
	runNS := map[string]float64{}
	events := map[string]float64{}
	modeShare := map[sys.Mode][]float64{}
	for _, p := range spanned {
		costs = append(costs, p.Cost)
		var newSum time.Duration
		modeRun := map[sys.Mode]time.Duration{}
		for _, c := range p.Cells {
			newMS = append(newMS, millis(c.New))
			newMB = append(newMB, c.NewMB)
			newSum += c.New
			modeRun[c.Mode] += c.Run
			m := c.Res.Metrics
			runNS[c.Bench] += float64(c.Run)
			events[c.Bench] += float64(m.L3Accesses + m.DRAMAccesses + m.FlitHops)
		}
		newShare = append(newShare, seconds(newSum)/seconds(p.Cost.Wall))
		for _, mode := range sys.Modes {
			modeShare[mode] = append(modeShare[mode], seconds(modeRun[mode])/seconds(p.Cost.Wall))
		}
	}
	_, _, gcCycles, gcPause := costColumns(costs)
	v := r.Values
	v["sys.new_ms"] = median(newMS)
	v["sys.new_mb"] = median(newMB)
	v["sys.new_share"] = median(newShare)
	for _, b := range benches {
		if events[b] > 0 {
			v["workloads.ns_per_event."+b] = runNS[b] / events[b]
		}
	}
	for _, mode := range sys.Modes {
		v["workloads.run_share."+mode.String()] = median(modeShare[mode])
	}
	v["runtime.gc_cycles"] = median(gcCycles)
	v["runtime.gc_pause_ms"] = median(gcPause)
	v["trace_overhead_frac"] = traceOverhead(plainCosts, costs)

	// Modelled counts are the same in every pass (the digest checks it),
	// so the first traced pass speaks for all.
	p := spanned[0]
	var l3, l3Miss, dram, hops, linkFlits, linkCycles float64
	for _, c := range p.Cells {
		m := c.Res.Metrics
		l3 += float64(m.L3Accesses)
		l3Miss += float64(m.L3Misses)
		dram += float64(m.DRAMAccesses)
		hops += float64(m.FlitHops)
		linkFlits += float64(m.LinkFlits)
		linkCycles += float64(m.Links) * float64(m.Cycles)
	}
	v["cache.l3_accesses"] = l3
	v["cache.dram_accesses"] = dram
	v["noc.flit_hops"] = hops
	if l3 > 0 {
		v["cache.l3_miss_rate"] = l3Miss / l3
	}
	if linkCycles > 0 {
		v["noc.util"] = linkFlits / linkCycles
	}
	v["core.calls_affine"] = float64(p.Calls.Affine)
	v["core.calls_near"] = float64(p.Calls.Near)
	v["core.calls_free"] = float64(p.Calls.Free)
}
