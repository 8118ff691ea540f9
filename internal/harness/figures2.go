package harness

import (
	"fmt"

	"affinityalloc/internal/core"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/graph"
	"affinityalloc/internal/stats"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/workloads"
)

// fig6Workloads builds the five Fig-6 kernels over prebuilt graphs with
// an oracle attached.
func fig6Workloads(opt Options, g, gt, wg *graph.Graph, oracle *workloads.EdgeOracle) []workloads.Workload {
	iters := prIters(opt)
	return []workloads.Workload{
		workloads.PageRank{G: g, GT: gt, Iters: iters, Dir: graph.Push, Oracle: oracle},
		workloads.BFS{G: g, GT: gt, Policy: graph.PushOnly{}, Src: -1, Oracle: oracle},
		workloads.SSSP{G: wg, Src: -1, Oracle: oracle},
		workloads.PageRank{G: g, GT: gt, Iters: iters, Dir: graph.Pull, Oracle: oracle},
		workloads.BFS{G: g, GT: gt, Policy: graph.PullOnly{}, Src: -1, Oracle: oracle},
	}
}

// Fig6 regenerates the irregular-layout potential study: the CSR edge
// array broken into chunks of decreasing size, each placed by an oracle
// with minimal indirect traffic (≤2% imbalance), plus the no-indirect-
// traffic ideal. All runs use the Near-L3 configuration (the study
// motivates the co-designed format; it predates affinity alloc).
func Fig6(opt Options) (*Figure, error) {
	variants := []struct {
		name   string
		oracle *workloads.EdgeOracle
	}{
		{"Base", nil},
		{"Ind-4kB", &workloads.EdgeOracle{ChunkBytes: 4096}},
		{"Ind-1kB", &workloads.EdgeOracle{ChunkBytes: 1024}},
		{"Ind-256B", &workloads.EdgeOracle{ChunkBytes: 256}},
		{"Ind-64B", &workloads.EdgeOracle{ChunkBytes: 64}},
		{"Ind-Ideal", &workloads.EdgeOracle{ChunkBytes: 0}},
	}
	spd := stats.NewTable("Fig 6: speedup (normalized to Base = Near-L3)",
		"workload", "Base", "Ind-4kB", "Ind-1kB", "Ind-256B", "Ind-64B", "Ind-Ideal")
	trf := stats.NewTable("Fig 6: total NoC flit-hops (normalized to Base)",
		"workload", "Base", "Ind-4kB", "Ind-1kB", "Ind-256B", "Ind-64B", "Ind-Ideal")

	cfg := baseConfig(opt, core.DefaultPolicy())
	names := []string{"pr_push", "bfs_push", "sssp", "pr_pull", "bfs_pull"}
	g, gt := sharedGraph(opt)
	wgr := weighted(g, 42+opt.Seed)
	byVariant := make([][]workloads.Workload, len(variants))
	for vi, v := range variants {
		byVariant[vi] = fig6Workloads(opt, g, gt, wgr, v.oracle)
	}

	cells := make([]cell, 0, len(names)*len(variants))
	for wi := range names {
		for vi, v := range variants {
			cells = append(cells, cell{fmt.Sprintf("fig6 %s/%s", names[wi], v.name), cfg, byVariant[vi][wi], sys.NearL3})
		}
	}
	rs, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}

	perVariant := make(map[string][]float64)
	for wi := range names {
		row := []interface{}{names[wi]}
		trow := []interface{}{names[wi]}
		base := rs[wi*len(variants)]
		for vi, v := range variants {
			r := rs[wi*len(variants)+vi]
			sp := speedup(r, base)
			row = append(row, sp)
			trow = append(trow, float64(r.Metrics.FlitHops)/float64(max(base.Metrics.FlitHops, 1)))
			perVariant[v.name] = append(perVariant[v.name], sp)
		}
		spd.AddRow(row...)
		trf.AddRow(trow...)
	}
	gm := []interface{}{"geomean"}
	for _, v := range variants {
		gm = append(gm, stats.Geomean(perVariant[v.name]))
	}
	spd.AddRow(gm...)
	return &Figure{
		ID:     "fig6",
		Title:  "Impact of Irregular Data Layout",
		Tables: []*stats.Table{spd, trf},
		Notes: []string{
			"paper shape: finer chunks monotonically help (64B: ~60% traffic cut, ~2.14x); Ind-Ideal ~4.1x on pushes",
		},
	}, nil
}

// atomicSample is one atomic-stream op seen by the Fig-14 sampler.
type atomicSample struct {
	bank int
	at   engine.Time
}

// atomicSampled wraps a workload so that its run keeps the bank and cycle
// of every atomic-stream op. The samples are bucketed once the run's
// length is known. The sampler only observes, so the wrapped run
// simulates exactly what the bare workload would.
type atomicSampled struct {
	workloads.Workload
	banks   int
	samples []atomicSample
}

// Run implements workloads.Workload.
func (w *atomicSampled) Run(s *sys.System, mode sys.Mode) (workloads.Result, error) {
	w.banks = s.Mesh.Banks()
	s.SE.SetAtomicSampler(func(bank int, at engine.Time) {
		w.samples = append(w.samples, atomicSample{bank, at})
	})
	return w.Workload.Run(s, mode)
}

// timeline buckets the samples into about 16 windows of a run that took
// cycles.
func (w *atomicSampled) timeline(cycles engine.Time) *stats.Timeline {
	tl := stats.NewTimeline(w.banks, cycles/16+1)
	for _, a := range w.samples {
		tl.Add(a.bank, a.at)
	}
	return tl
}

// Fig14 regenerates the per-bank atomic-stream occupancy timelines of
// bfs_push under Rnd, Min-Hop, and Hybrid-5.
func Fig14(opt Options) (*Figure, error) {
	g, gt := sharedGraph(opt)
	policies := []core.PolicyConfig{
		{Policy: core.Rnd},
		{Policy: core.MinHop},
		{Policy: core.Hybrid, H: 5},
	}
	sampled := make([]*atomicSampled, len(policies))
	cells := make([]cell, len(policies))
	for pi, p := range policies {
		sampled[pi] = &atomicSampled{Workload: workloads.BFS{G: g, GT: gt, Policy: graph.PushOnly{}, Src: -1}}
		cells[pi] = cell{"fig14 bfs_push/" + policyName(p), baseConfig(opt, p), sampled[pi], sys.AffAlloc}
	}
	rs, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}
	tables := make([]*stats.Table, len(policies))
	for pi, p := range policies {
		tl := sampled[pi].timeline(rs[pi].Metrics.Cycles)
		tbl := stats.NewTable(fmt.Sprintf("Fig 14: atomic ops per bank per window — %s (imbalance max/avg %.2f)", policyName(p), tl.Imbalance()),
			"t/T", "min", "p25", "avg", "p75", "max")
		for b := 0; b < tl.Buckets(); b++ {
			d := tl.Distribution(b)
			tbl.AddRow(fmt.Sprintf("%.2f", float64(b)/float64(tl.Buckets())), d.Min, d.P25, d.Avg, d.P75, d.Max)
		}
		tables[pi] = tbl
	}
	return &Figure{
		ID:     "fig14",
		Title:  "Distribution of Atomic Stream in BFS-Push",
		Tables: tables,
		Notes: []string{
			"paper shape: Rnd has the highest occupancy; Hybrid-5's p25 line sits above Min-Hop's (better balance)",
		},
	}, nil
}

// Fig15 regenerates the affine input-size scaling study.
func Fig15(opt Options) (*Figure, error) {
	tbl := stats.NewTable("Fig 15: affine workloads vs input scale",
		"workload", "scale", "speedup.AffAlloc/NearL3", "l3miss.AffAlloc", "l3miss.NearL3")
	// The host-scaled 1x inputs are ~8x smaller than the paper's, so the
	// sweep extends to 16x to cross the 64MB LLC boundary the paper's 8x
	// reaches.
	cfg := baseConfig(opt, core.DefaultPolicy())
	type point struct {
		w    workloads.Workload
		mult int64
	}
	var points []point
	for _, mult := range []int64{1, 2, 4, 8, 16} {
		for _, w := range affineWorkloads(opt, mult) {
			points = append(points, point{w, mult})
		}
	}
	modes := []sys.Mode{sys.NearL3, sys.AffAlloc}
	cells := make([]cell, 0, len(points)*len(modes))
	for _, pt := range points {
		for _, mode := range modes {
			cells = append(cells, cell{fmt.Sprintf("fig15 %s %dx/%v", pt.w.Name(), pt.mult, mode), cfg, pt.w, mode})
		}
	}
	rs, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}
	for i, pt := range points {
		near, aff := rs[2*i], rs[2*i+1]
		tbl.AddRow(pt.w.Name(), fmt.Sprintf("%dx", pt.mult), speedup(aff, near),
			aff.Metrics.L3MissRate(), near.Metrics.L3MissRate())
	}
	return &Figure{
		ID:     "fig15",
		Title:  "Speedup of Affine Layout on Large Inputs",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"paper shape: the benefit collapses once the working set exceeds the LLC (miss rate climbs with scale)",
		},
	}, nil
}

// policyRun is one (policy, mode) configuration that a graph-family
// figure runs every workload under.
type policyRun struct {
	name string
	pcfg core.PolicyConfig
	mode sys.Mode
}

// graphInput is one graph of a graph-family figure (Figs 16, 19, 20): g,
// its transpose gt, and wg, the weighted graph sssp runs on.
type graphInput struct {
	label     string
	g, gt, wg *graph.Graph
}

// graphRow is one (graph, workload) row of a graph-family figure: the
// graph's index, the workload, and one result per policyRun in run order.
type graphRow struct {
	gi int
	w  workloads.Workload
	rs []workloads.Result
}

// runGraphTrio runs pr_push, bfs and sssp on every graph under every
// run, as cells labeled "<fig> <graph label> <workload>/<run>", and
// returns the rows graph-major, in that workload order.
func runGraphTrio(opt Options, fig string, graphs []graphInput, runs []policyRun) ([]graphRow, error) {
	var rows []graphRow
	var cells []cell
	for gi, in := range graphs {
		for _, w := range []workloads.Workload{
			workloads.PageRank{G: in.g, GT: in.gt, Iters: prIters(opt), Dir: graph.Push},
			workloads.BFS{G: in.g, GT: in.gt, Src: -1},
			workloads.SSSP{G: in.wg, Src: -1},
		} {
			rows = append(rows, graphRow{gi: gi, w: w})
			for _, r := range runs {
				cells = append(cells, cell{fmt.Sprintf("%s %s %s/%s", fig, in.label, w.Name(), r.name), baseConfig(opt, r.pcfg), w, r.mode})
			}
		}
	}
	rs, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].rs = rs[i*len(runs) : (i+1)*len(runs)]
	}
	return rows, nil
}

// Fig16 regenerates the graph-size scaling study.
func Fig16(opt Options) (*Figure, error) {
	baseScale, deg := 13, 12
	switch opt.Scale {
	case Tiny:
		baseScale, deg = 10, 8
	case Paper:
		baseScale, deg = 17, 32
	}
	tbl := stats.NewTable("Fig 16: graph workloads vs |V| (speedup over Near-L3)",
		"workload", "|V|", "Hybrid-5", "Min-Hops", "l3miss.Hybrid5", "l3miss.NearL3")
	graphs := make([]graphInput, 4)
	if err := opt.forEach(len(graphs), func(ds int) error {
		scale := baseScale + ds
		g := graph.Kronecker(scale, deg, 42+opt.Seed)
		graphs[ds] = graphInput{fmt.Sprintf("2^%d", scale), g, g.Transpose(), weighted(g, 42+opt.Seed)}
		return nil
	}); err != nil {
		return nil, err
	}
	rows, err := runGraphTrio(opt, "fig16", graphs, []policyRun{
		{"near", core.DefaultPolicy(), sys.NearL3},
		{"hybrid5", core.PolicyConfig{Policy: core.Hybrid, H: 5}, sys.AffAlloc},
		{"minhop", core.PolicyConfig{Policy: core.MinHop}, sys.AffAlloc},
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		near, hy, mh := row.rs[0], row.rs[1], row.rs[2]
		tbl.AddRow(row.w.Name(), graphs[row.gi].label, speedup(hy, near), speedup(mh, near),
			hy.Metrics.L3MissRate(), near.Metrics.L3MissRate())
	}
	return &Figure{
		ID:     "fig16",
		Title:  "Speedup of Linked CSR on Large Graphs",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"paper shape: benefits shrink as the graph outgrows the LLC, but persist longer than the affine case (vertex reuse)",
		},
	}, nil
}

// Fig17 regenerates the BFS per-iteration characteristics.
func Fig17(opt Options) (*Figure, error) {
	g, gt := sharedGraph(opt)
	res := graph.BFS(g, gt, g.MaxDegreeVertex(), graph.PushOnly{})
	tbl := stats.NewTable("Fig 17: BFS iteration characteristics (fractions of |V| / |E|)",
		"iter", "visited", "active", "scout-edges")
	for _, it := range res.Iters {
		tbl.AddRow(it.Iter,
			float64(it.Visited)/float64(g.N),
			float64(it.Active)/float64(g.N),
			float64(it.ScoutEdges)/float64(g.NumEdges()))
	}
	return &Figure{
		ID:     "fig17",
		Title:  "BFS Iteration Characteristics",
		Tables: []*stats.Table{tbl},
		Notes:  []string{"paper shape: a small-world burst — active nodes and scout edges spike in the middle iterations"},
	}, nil
}

// iterTraced wraps BFS so that its run keeps the per-iteration trace
// Fig 18 renders.
type iterTraced struct {
	workloads.BFS
	iters []workloads.IterTrace
}

// Run implements workloads.Workload.
func (w *iterTraced) Run(s *sys.System, mode sys.Mode) (workloads.Result, error) {
	r, iters, err := w.BFS.RunTraced(s, mode)
	w.iters = iters
	return r, err
}

// Fig18 regenerates the push/pull/switch timelines under each
// configuration.
func Fig18(opt Options) (*Figure, error) {
	g, gt := sharedGraph(opt)
	policies := []graph.DirectionPolicy{graph.PullOnly{}, graph.PushOnly{}, nil} // nil = per-mode switch
	polName := func(p graph.DirectionPolicy, mode sys.Mode) string {
		if p == nil {
			if mode == sys.InCore {
				return "switch(gap)"
			}
			return "switch(ndc)"
		}
		return p.Name()
	}
	cfg := baseConfig(opt, core.DefaultPolicy())
	var traced []*iterTraced
	var cells []cell
	for _, mode := range sys.Modes {
		for _, p := range policies {
			w := &iterTraced{BFS: workloads.BFS{G: g, GT: gt, Policy: p, Src: -1}}
			traced = append(traced, w)
			cells = append(cells, cell{fmt.Sprintf("fig18 %s/%v", polName(p, mode), mode), cfg, w, mode})
		}
	}
	rs, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}
	var tables []*stats.Table
	for mi, mode := range sys.Modes {
		tbl := stats.NewTable(fmt.Sprintf("Fig 18: BFS iteration timeline — %v", mode),
			"policy", "total.cycles", "iter:dir(share%)")
		for pi, p := range policies {
			i := mi*len(policies) + pi
			total := float64(rs[i].Metrics.Cycles)
			line := ""
			for _, tr := range traced[i].iters {
				share := 100 * float64(tr.End-tr.Start) / total
				line += fmt.Sprintf("%d:%s(%.0f%%) ", tr.Iter, tr.Dir, share)
			}
			tbl.AddRow(polName(p, mode), uint64(rs[i].Metrics.Cycles), line)
		}
		tables = append(tables, tbl)
	}
	return &Figure{
		ID:     "fig18",
		Title:  "BFS Push vs Pull Timeline",
		Tables: tables,
		Notes: []string{
			"paper shape: In-Core pulls through the middle iterations; the NSC configurations push through more of the search",
		},
	}, nil
}

// Fig19 regenerates the average-degree sensitivity on power-law graphs
// with fixed |E|, normalized to the Rnd policy.
func Fig19(opt Options) (*Figure, error) {
	totalEdges := int64(1) << 19
	switch opt.Scale {
	case Tiny:
		totalEdges = 1 << 16
	case Paper:
		totalEdges = 1 << 22
	}
	tbl := stats.NewTable("Fig 19: speedup vs average degree (fixed |E|, normalized to Rnd)",
		"workload", "D", "Hybrid-5", "Min-Hops", "Near-L3")
	degrees := []int{4, 8, 16, 32, 64, 128}
	graphs := make([]graphInput, len(degrees))
	if err := opt.forEach(len(degrees), func(di int) error {
		d := degrees[di]
		n := int32(totalEdges / int64(d))
		g := graph.PowerLaw(n, d, 7+opt.Seed)
		graphs[di] = graphInput{fmt.Sprintf("D%d", d), g, g.Transpose(), weighted(g, 7+opt.Seed)}
		return nil
	}); err != nil {
		return nil, err
	}
	rows, err := runGraphTrio(opt, "fig19", graphs, []policyRun{
		{"rnd", core.PolicyConfig{Policy: core.Rnd}, sys.AffAlloc},
		{"hybrid5", core.PolicyConfig{Policy: core.Hybrid, H: 5}, sys.AffAlloc},
		{"minhop", core.PolicyConfig{Policy: core.MinHop}, sys.AffAlloc},
		{"near", core.DefaultPolicy(), sys.NearL3},
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		rnd, hy, mh, near := row.rs[0], row.rs[1], row.rs[2], row.rs[3]
		tbl.AddRow(row.w.Name(), degrees[row.gi], speedup(hy, rnd), speedup(mh, rnd), speedup(near, rnd))
	}
	return &Figure{
		ID:     "fig19",
		Title:  "Speedup vs Average Node Degree",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"paper shape: the affinity benefit grows with degree (sorted edge lists make high-degree chunks more placeable)",
		},
	}, nil
}

// table4Graphs builds the Table-4 social-network stand-ins (synthetic
// power-law graphs at the published |V|/|E| shapes, scaled by host
// budget; DESIGN.md documents the substitution).
func table4Graphs(opt Options) []struct {
	Name string
	G    *graph.Graph
} {
	div := int32(8)
	switch opt.Scale {
	case Tiny:
		div = 32
	case Paper:
		div = 1
	}
	twitch := graph.PowerLaw(168114/div, 81, 100+opt.Seed)
	gplus := graph.PowerLaw(107614/div, 127, 200+opt.Seed)
	return []struct {
		Name string
		G    *graph.Graph
	}{
		{"twitch-gamers*", twitch},
		{"gplus*", gplus},
	}
}

// Table4 reports the stand-in graphs' shapes.
func Table4(opt Options) (*Figure, error) {
	tbl := stats.NewTable("Table 4: real-world graph stand-ins (synthetic power-law, * = substituted)",
		"graph", "|V|", "|E|", "avg.degree", "max.degree")
	for _, e := range table4Graphs(opt) {
		tbl.AddRow(e.Name, e.G.N, e.G.NumEdges(), e.G.AvgDegree(), e.G.Degree(e.G.MaxDegreeVertex()))
	}
	return &Figure{ID: "t4", Title: "Real-world graph stand-ins", Tables: []*stats.Table{tbl}}, nil
}

// Fig20 regenerates the real-world-graph evaluation on the stand-ins.
func Fig20(opt Options) (*Figure, error) {
	spd := stats.NewTable("Fig 20: speedup on real-world stand-ins (normalized to Near-L3)",
		"graph", "workload", "Near-L3", "Min-Hops", "Hybrid-5")
	trf := stats.NewTable("Fig 20: total NoC flit-hops (normalized to Near-L3)",
		"graph", "workload", "Near-L3", "Min-Hops", "Hybrid-5")
	stand := table4Graphs(opt)
	graphs := make([]graphInput, len(stand))
	if err := opt.forEach(len(stand), func(gi int) error {
		g := stand[gi].G
		graphs[gi] = graphInput{stand[gi].Name, g, g.Transpose(), weighted(g, 300+opt.Seed)}
		return nil
	}); err != nil {
		return nil, err
	}
	rows, err := runGraphTrio(opt, "fig20", graphs, []policyRun{
		{"near", core.DefaultPolicy(), sys.NearL3},
		{"minhop", core.PolicyConfig{Policy: core.MinHop}, sys.AffAlloc},
		{"hybrid5", core.PolicyConfig{Policy: core.Hybrid, H: 5}, sys.AffAlloc},
	})
	if err != nil {
		return nil, err
	}

	var hySpeedups []float64
	for _, row := range rows {
		near, mh, hy := row.rs[0], row.rs[1], row.rs[2]
		name := graphs[row.gi].label
		spd.AddRow(name, row.w.Name(), 1.0, speedup(mh, near), speedup(hy, near))
		nt := float64(max(near.Metrics.FlitHops, 1))
		trf.AddRow(name, row.w.Name(), 1.0,
			float64(mh.Metrics.FlitHops)/nt, float64(hy.Metrics.FlitHops)/nt)
		hySpeedups = append(hySpeedups, speedup(hy, near))
	}
	return &Figure{
		ID:     "fig20",
		Title:  "Performance on Real-World Graph Stand-ins",
		Tables: []*stats.Table{spd, trf},
		Notes: []string{
			fmt.Sprintf("Hybrid-5 geomean speedup over Near-L3: %.2fx (paper: 2.0x)", stats.Geomean(hySpeedups)),
		},
	}, nil
}
