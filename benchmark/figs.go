package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"affinityalloc/internal/harness"
	"affinityalloc/internal/sys"
)

// figRun is one harness.Experiment.Run.
type figRun struct {
	ID    string
	Wall  time.Duration
	Cells []harness.CellTiming
	Text  []byte // the rendered figure
	Err   error
}

// figPass regenerates each of a list of figures once.
type figPass struct {
	Cost hostCost
	Figs []figRun
}

// runFigPass runs the figures through the harness exactly as affsim and
// the golden tests do, jobs cells at a time.
func runFigPass(ids []string, seed int64, jobs int, tr *tracer, id int) figPass {
	var p figPass
	p.Cost = measure(func() {
		root := tr.begin("pass", -1, id)
		for _, fid := range ids {
			e, _ := harness.Lookup(fid)
			tm := &harness.Timing{}
			f := figRun{ID: fid}
			sp := tr.begin("Experiment.Run "+fid, root, id)
			t0 := time.Now()
			fig, err := e.Run(harness.Options{Scale: harness.Tiny, Seed: seed, Jobs: jobs, Timing: tm})
			f.Wall = time.Since(t0)
			tr.end(sp)
			f.Cells = tm.Cells()
			if err != nil {
				f.Err = err
			} else {
				var buf bytes.Buffer
				fig.Render(&buf)
				f.Text = buf.Bytes()
			}
			p.Figs = append(p.Figs, f)
		}
		tr.end(root)
	})
	return p
}

// digest hashes every rendered figure and every cell's simulated cycles.
func (p *figPass) digest() string {
	h := sha256.New()
	for _, f := range p.Figs {
		h.Write(f.Text)
		for _, c := range f.Cells {
			fmt.Fprintf(h, "%s %s cycles=%d\n", f.ID, c.Label, uint64(c.SimCycles))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (p *figPass) cells() int {
	n := 0
	for _, f := range p.Figs {
		n += len(f.Cells)
	}
	return n
}

// check counts the pass's operations into r: one per cell, one per
// figure, one for the digest. A figure errors when any of its cells
// does or when a workload's checksum differs across modes. The digest
// must equal that of the first pass checked, which also supplies the
// run's speed-up ratios.
func (p *figPass) check(r *result) {
	r.Attempted += p.cells() + len(p.Figs) + 1
	for _, f := range p.Figs {
		if f.Err != nil {
			r.fail("%s: %v", f.ID, f.Err)
		}
	}
	if got := p.digest(); r.Digest == "" {
		r.Digest, r.Ratios = got, p.affRatios()
	} else if got != r.Digest {
		r.fail("sim_digest %s differs from the first pass's %s", got[:12], r.Digest[:12])
	}
}

func (p *figPass) simCycles() float64 {
	var sum float64
	for _, f := range p.Figs {
		for _, c := range f.Cells {
			sum += float64(c.SimCycles)
		}
	}
	return sum
}

// affRatios reads Near-L3 cycles ÷ Aff-Alloc cycles per benchmark out of
// fig12's cells, which the harness labels "<benchmark>/<mode>".
func (p *figPass) affRatios() map[string]float64 {
	near, aff := map[string]float64{}, map[string]float64{}
	for _, f := range p.Figs {
		if f.ID != "fig12" {
			continue
		}
		for _, c := range f.Cells {
			if b, ok := strings.CutSuffix(c.Label, "/"+sys.NearL3.String()); ok {
				near[b] = float64(c.SimCycles)
			}
			if b, ok := strings.CutSuffix(c.Label, "/"+sys.AffAlloc.String()); ok {
				aff[b] = float64(c.SimCycles)
			}
		}
	}
	out := map[string]float64{}
	for b, n := range near {
		if aff[b] > 0 && n > 0 {
			out[b] = n / aff[b]
		}
	}
	return out
}

// runFigs runs figs_tiny: fig4, fig12 and fig13 at
// tiny scale through harness.Experiment.Run with Jobs: 1.
func runFigs(seed int64, sz sizing, traced bool) (*result, error) {
	r := newResult(wlFigsTiny, seed)

	for _, fid := range figIDs {
		if _, ok := harness.Lookup(fid); !ok {
			return nil, fmt.Errorf("harness has no experiment %q", fid)
		}
	}
	setupStart := time.Now()
	if sz.Warmup {
		warm := runFigPass(figIDs, seed, 1, nil, 0)
		warm.check(r)
	}
	setup := time.Since(setupStart)

	var plain, spanned []figPass
	var newS, newMBs []float64
	if traced {
		r.tr = newTracer()
	}
	timedLoop(sz.Budget, sz.MinPasses, func(i int) {
		for _, tr := range r.tracers() {
			p := runFigPass(figIDs, seed, 1, tr, i+1)
			p.check(r)
			if tr == nil {
				plain = append(plain, p)
				continue
			}
			spanned = append(spanned, p)
			// The harness builds its systems out of sight, so a traced
			// pass is followed by timed constructions of the same machine
			// config; a pass builds one system per cell.
			d, m, err := probeSysNew(seed, sysNewProbes)
			if err != nil {
				r.Attempted++
				r.fail("sys.New: %v", err)
				continue
			}
			for _, x := range d {
				newS = append(newS, seconds(x))
			}
			newMBs = append(newMBs, m...)
		}
	})
	benches := make([]string, 0, len(r.Ratios))
	for b := range r.Ratios {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	if len(benches) == 0 {
		r.Attempted++
		r.fail("fig12 timing has no <benchmark>/%v and <benchmark>/%v cell pair", sys.NearL3, sys.AffAlloc)
	}

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
		nproc := runtime.GOMAXPROCS(0)
		par := runFigPass(figIDs, seed, nproc, r.tr, len(plain)+len(spanned)+1)
		par.check(r)
		figLayers(r, plain, spanned, par, median(newS), median(newMBs))
	}
	return r, nil
}

// figLayers fills the per-layer metrics figs_tiny owns. par is the one
// extra pass at Jobs: nproc.
func figLayers(r *result, plain, spanned []figPass, par figPass, newS, newMB float64) {
	var plainCosts, costs []hostCost
	for _, p := range plain {
		plainCosts = append(plainCosts, p.Cost)
	}
	var cellMS, cells []float64
	figRate := map[string][]float64{}
	for _, p := range spanned {
		costs = append(costs, p.Cost)
		cells = append(cells, float64(p.cells()))
		for _, f := range p.Figs {
			var cyc float64
			for _, c := range f.Cells {
				cellMS = append(cellMS, millis(c.Wall))
				cyc += float64(c.SimCycles)
			}
			figRate[f.ID] = append(figRate[f.ID], cyc/seconds(f.Wall))
		}
	}
	wall, _, gcCycles, gcPause := costColumns(costs)
	v := r.Values
	v["sys.new_ms"] = newS * 1e3
	v["sys.new_mb"] = newMB
	if w := median(wall); w > 0 {
		v["sys.new_share"] = newS * median(cells) / w
		v["harness.parallel_speedup"] = w / seconds(par.Cost.Wall)
	}
	v["harness.cells"] = median(cells)
	v["harness.cell_ms_p50"] = quantile(cellMS, 0.50)
	v["harness.cell_ms_max"] = quantile(cellMS, 1)
	for fid, rates := range figRate {
		v["harness.sim_cycles_per_s."+fid] = median(rates)
	}
	v["runtime.gc_cycles"] = median(gcCycles)
	v["runtime.gc_pause_ms"] = median(gcPause)
	v["trace_overhead_frac"] = traceOverhead(plainCosts, costs)
}
