package workloads

import (
	"affinityalloc/internal/engine"
	"affinityalloc/internal/graph"
	"affinityalloc/internal/sys"
)

// prDamping is the conventional PageRank damping factor.
const prDamping = 0.85

// PageRank is the pr workload of Table 3 in its push (atomic
// scatter-add) or pull (indirect gather) form. The functional result is
// bit-identical across configurations because edge processing follows
// the same deterministic order everywhere.
type PageRank struct {
	G     *graph.Graph
	GT    *graph.Graph // required for Pull
	Iters int
	Dir   graph.Direction
	// Best selects the paper's per-configuration choice (Fig 12 "pr"):
	// pull In-Core, push for the NSC configurations. It overrides Dir.
	Best bool
	// Oracle enables the Fig-6 chunked-placement study (CSR modes only).
	Oracle *EdgeOracle
}

// Name implements Workload.
func (w PageRank) Name() string {
	if w.Best {
		return "pr"
	}
	if w.Dir == graph.Push {
		return "pr_push"
	}
	return "pr_pull"
}

// Run implements Workload.
func (w PageRank) Run(s *sys.System, mode sys.Mode) (Result, error) {
	dir := w.Dir
	if w.Best {
		if mode == sys.InCore {
			dir = graph.Pull
		} else {
			dir = graph.Push
		}
	}
	gd, err := buildGraphData(s, mode, w.G, w.GT, graphSetup{
		needPull:          dir == graph.Pull,
		propElem:          8,
		prop2Elem:         8,
		oracle:            w.Oracle,
		oracleTargetProp2: dir == graph.Push,
	})
	if err != nil {
		return Result{}, err
	}

	n := int(w.G.N)
	scores := make([]float64, n)
	sums := make([]float64, n)
	for i := range scores {
		scores[i] = 1 / float64(n)
	}

	var finish engine.Time
	for it := 0; it < w.Iters; it++ {
		if finish, err = w.iter(s, gd, mode, dir, scores, sums, finish); err != nil {
			return Result{}, err
		}
		// Damped update pass: scores = base + d*sums; sums = 0.
		base := (1 - prDamping) / float64(n)
		for i := range scores {
			scores[i] = base + prDamping*sums[i]
			sums[i] = 0
		}
		p := pass{ops: []operand{{arr: gd.prop2}}, out: gd.prop, n: int64(n), weight: 2}
		finish = p.run(s, mode, finish)
	}

	cs := newChecksum()
	for i := 0; i < n; i += 97 {
		cs.addF32(float32(scores[i]))
	}
	return Result{Name: w.Name(), Mode: mode, Metrics: s.Collect(finish), Checksum: cs.sum()}, nil
}

// iter runs one iteration's edge phase. Push scatters each vertex's
// contribution to its out-neighbors with remote atomic adds; pull
// gathers each vertex's in-neighbors' contributions with indirect reads
// and a local reduction.
func (w PageRank) iter(s *sys.System, gd *graphData, mode sys.Mode, dir graph.Direction, scores, sums []float64,
	start engine.Time) (engine.Time, error) {

	g := w.G
	m := edgeMap{s: s, gd: gd, mode: mode, dir: &gd.out, from: allFrontier, read: valueRead,
		edge: func(c *mapCore, u, v int32, _ int64) (bool, error) {
			c.update(gd.prop2.ElemAddr(int64(v)))
			sums[v] += scores[u] / float64(g.Degree(u))
			return false, nil
		}}
	if dir == graph.Pull {
		m.dir, m.from, m.read = &gd.in, partFrontier, noRead
		m.edge = func(c *mapCore, v, u int32, _ int64) (bool, error) {
			c.gather(gd.prop.ElemAddr(int64(u)), 2)
			if deg := g.Degree(u); deg > 0 {
				sums[v] += scores[u] / float64(deg)
			}
			return false, nil
		}
		m.done = func(c *mapCore, v int32) { c.reduce(gd.prop2.ElemAddr(int64(v))) }
	}
	return m.run(start)
}
