package harness

import (
	"fmt"

	"affinityalloc/internal/core"
	"affinityalloc/internal/stats"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/workloads"
)

// fig4N returns the vecadd size per scale.
func fig4N(opt Options) int64 {
	switch opt.Scale {
	case Tiny:
		return 1 << 16
	case Paper:
		return 1 << 21
	default:
		return 1 << 18
	}
}

// Fig4 regenerates the Δ-bank layout sweep on vector add: near-data
// computing under deliberately misaligned layouts, versus In-Core and a
// random page layout.
func Fig4(opt Options) (*Figure, error) {
	n := fig4N(opt)
	tbl := stats.NewTable("Fig 4: vecadd layout sweep (normalized to In-Core)",
		"layout", "speedup", "hops.data", "hops.control", "hops.offload", "hops.total")

	cfg := baseConfig(opt, core.DefaultPolicy())
	type variant struct {
		name string
		w    workloads.VecAdd
		mode sys.Mode
	}
	variants := []variant{{"In-Core", workloads.VecAdd{N: n, ForceDelta: -1}, sys.InCore}}
	for delta := 0; delta <= 64; delta += 4 {
		variants = append(variants,
			variant{fmt.Sprintf("Δ Bank %d", delta), workloads.VecAdd{N: n, ForceDelta: delta}, sys.AffAlloc})
	}
	variants = append(variants, variant{"Random", workloads.VecAdd{N: n, ForceDelta: -1}, sys.NearL3})

	cells := make([]cell, len(variants))
	for i, v := range variants {
		cells[i] = cell{"vecadd/" + v.name, cfg, v.w, v.mode}
	}
	rs, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}
	inCore := rs[0]
	for i, v := range variants {
		d, c, o := trafficCols(rs[i], inCore)
		tbl.AddRow(v.name, speedup(rs[i], inCore), d, c, o, d+c+o)
	}

	return &Figure{
		ID:     "fig4",
		Title:  "Impact of Affine Data Layout on Vec Add",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"paper shape: NSC always above In-Core; best at Δ0, worst near the bisection (Δ~32); Random ≈ 42% of aligned",
		},
	}, nil
}

// Fig12 regenerates the headline evaluation: all ten workloads under the
// three configurations.
func Fig12(opt Options) (*Figure, error) {
	spd := stats.NewTable("Fig 12: speedup and energy efficiency (normalized to Near-L3)",
		"workload", "spdup.InCore", "spdup.NearL3", "spdup.AffAlloc", "eff.InCore", "eff.NearL3", "eff.AffAlloc")
	trf := stats.NewTable("Fig 12: NoC traffic (flit-hops normalized to In-Core) and utilization",
		"workload", "cfg", "data", "control", "offload", "total", "util")

	ws := AllWorkloads(opt)
	modeRes, err := runModesAll(opt, ws)
	if err != nil {
		return nil, err
	}

	var spIn, spAff, efIn, efAff, trAff []float64
	for wi, w := range ws {
		res := modeRes[wi]
		base := res[sys.NearL3]
		spd.AddRow(w.Name(),
			speedup(res[sys.InCore], base), 1.0, speedup(res[sys.AffAlloc], base),
			energyEff(res[sys.InCore], base), 1.0, energyEff(res[sys.AffAlloc], base))
		spIn = append(spIn, speedup(base, res[sys.InCore]))
		spAff = append(spAff, speedup(res[sys.AffAlloc], base))
		efIn = append(efIn, energyEff(base, res[sys.InCore]))
		efAff = append(efAff, energyEff(res[sys.AffAlloc], base))

		for _, mode := range sys.Modes {
			d, c, o := trafficCols(res[mode], res[sys.InCore])
			trf.AddRow(w.Name(), mode.String(), d, c, o, d+c+o, res[mode].Metrics.NoCUtil())
			if mode == sys.AffAlloc {
				trAff = append(trAff, d+c+o)
			}
		}
	}
	spd.AddRow("geomean",
		1/stats.Geomean(spIn), 1.0, stats.Geomean(spAff),
		1/stats.Geomean(efIn), 1.0, stats.Geomean(efAff))

	affOverIn := stats.Geomean(spAff) * stats.Geomean(spIn)
	effOverIn := stats.Geomean(efAff) * stats.Geomean(efIn)
	var trSum float64
	for _, v := range trAff {
		trSum += v
	}
	return &Figure{
		ID:     "fig12",
		Title:  "Overall Performance and Traffic Reduction",
		Tables: []*stats.Table{spd, trf},
		Notes: []string{
			fmt.Sprintf("Aff-Alloc over Near-L3: %.2fx speedup, %.2fx energy eff (paper: 2.26x / 1.76x)",
				stats.Geomean(spAff), stats.Geomean(efAff)),
			fmt.Sprintf("Aff-Alloc over In-Core: %.2fx speedup, %.2fx energy eff (paper: 7.53x / 4.69x)",
				affOverIn, effOverIn),
			fmt.Sprintf("Aff-Alloc mean traffic vs In-Core: %.0f%% reduction (paper: 87%%)",
				100*(1-trSum/float64(len(trAff)))),
		},
	}, nil
}

// policyName is a bank-selection policy's column and cell label:
// "Hybrid-5" for Hybrid with H=5, the policy's own name otherwise.
func policyName(p core.PolicyConfig) string {
	if p.Policy == core.Hybrid {
		return fmt.Sprintf("Hybrid-%d", int(p.H))
	}
	return p.Policy.String()
}

// Fig13 regenerates the irregular bank-selection policy sensitivity:
// Rnd / Lnr / Min-Hop / Hybrid-{1,3,5,7}, normalized to Rnd.
func Fig13(opt Options) (*Figure, error) {
	policies := []core.PolicyConfig{
		{Policy: core.Rnd},
		{Policy: core.Lnr},
		{Policy: core.MinHop},
		{Policy: core.Hybrid, H: 1},
		{Policy: core.Hybrid, H: 3},
		{Policy: core.Hybrid, H: 5},
		{Policy: core.Hybrid, H: 7},
	}
	spd := stats.NewTable("Fig 13: speedup by bank-selection policy (normalized to Rnd)",
		"workload", "Rnd", "Lnr", "Min-Hop", "Hybrid-1", "Hybrid-3", "Hybrid-5", "Hybrid-7")
	trf := stats.NewTable("Fig 13: total NoC flit-hops by policy (normalized to Rnd)",
		"workload", "Rnd", "Lnr", "Min-Hop", "Hybrid-1", "Hybrid-3", "Hybrid-5", "Hybrid-7")

	ws := irregularWorkloads(opt)
	cells := make([]cell, 0, len(ws)*len(policies))
	for _, w := range ws {
		for _, p := range policies {
			cells = append(cells, cell{fmt.Sprintf("%s/%s", w.Name(), policyName(p)), baseConfig(opt, p), w, sys.AffAlloc})
		}
	}
	rs, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}

	perPolicy := make(map[string][]float64)
	for wi, w := range ws {
		row := []interface{}{w.Name()}
		trow := []interface{}{w.Name()}
		base := rs[wi*len(policies)]
		for pi, p := range policies {
			r := rs[wi*len(policies)+pi]
			sp := speedup(r, base)
			row = append(row, sp)
			trow = append(trow, float64(r.Metrics.FlitHops)/float64(max(base.Metrics.FlitHops, 1)))
			perPolicy[policyName(p)] = append(perPolicy[policyName(p)], sp)
		}
		spd.AddRow(row...)
		trf.AddRow(trow...)
	}
	gm := []interface{}{"geomean"}
	for _, p := range policies {
		gm = append(gm, stats.Geomean(perPolicy[policyName(p)]))
	}
	spd.AddRow(gm...)

	return &Figure{
		ID:     "fig13",
		Title:  "Sensitivity on Irregular Layout Policies",
		Tables: []*stats.Table{spd, trf},
		Notes: []string{
			"paper shape: Min-Hop wins on most but collapses on bin_tree (whole tree on one bank); Hybrid-5 is the robust default",
		},
	}, nil
}
