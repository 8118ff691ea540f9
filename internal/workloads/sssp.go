package workloads

import (
	"affinityalloc/internal/engine"
	"affinityalloc/internal/graph"
	"affinityalloc/internal/sys"
)

// SSSP is the sssp workload of Table 3: frontier-driven single-source
// shortest paths by edge relaxation (atomic min on the distance array,
// re-pushing improved vertices), on uniformly weighted edges.
type SSSP struct {
	G   *graph.Graph
	Src int32 // -1: highest-degree vertex
	// Oracle enables the Fig-6 chunked-placement study (CSR modes only).
	Oracle *EdgeOracle
}

// Name implements Workload.
func (w SSSP) Name() string { return "sssp" }

// Run implements Workload.
func (w SSSP) Run(s *sys.System, mode sys.Mode) (Result, error) {
	g := w.G
	gd, err := buildGraphData(s, mode, g, nil, graphSetup{
		needQueue: true,
		propElem:  4,
		oracle:    w.Oracle,
	})
	if err != nil {
		return Result{}, err
	}

	src := w.Src
	if src < 0 {
		src = g.MaxDegreeVertex()
	}
	n := int64(g.N)
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = graph.InfDist
	}
	dist[src] = 0
	inNext := make([]bool, n)

	cur, nxt, err := newFrontierQueues(s, gd, mode == sys.AffAlloc, src)
	if err != nil {
		return Result{}, err
	}

	var finish engine.Time
	for frontier := int64(1); frontier > 0; {
		nxt.reset()
		frontier, finish, err = w.relaxRound(s, gd, mode, dist, inNext, cur, nxt, finish)
		if err != nil {
			return Result{}, err
		}
		cur, nxt = nxt, cur
	}

	cs := newChecksum()
	for v := int64(0); v < n; v++ {
		cs.addU64(uint64(dist[v]))
	}
	return Result{Name: w.Name(), Mode: mode, Metrics: s.Collect(finish), Checksum: cs.sum()}, nil
}

// relaxRound relaxes every out-edge of the current frontier, queueing
// each improved vertex once. Weights are positive, so dist[u] holds still
// while u's edges relax.
//
// In-Core, a core advances one frontier vertex per interleaved turn
// rather than chunkVerts; the figures are pinned at that schedule.
func (w SSSP) relaxRound(s *sys.System, gd *graphData, mode sys.Mode, dist []int64, inNext []bool,
	cur, nxt frontierQueue, start engine.Time) (int64, engine.Time, error) {

	g := w.G
	var pushed []int32
	m := edgeMap{s: s, gd: gd, mode: mode, dir: &gd.out, from: queueFrontier, queue: cur, turn: 1,
		edge: func(c *mapCore, u, v int32, k int64) (bool, error) {
			c.update(gd.prop.ElemAddr(int64(v)))
			nd := dist[u] + int64(g.Weights[k])
			if nd >= dist[v] {
				return false, nil
			}
			dist[v] = nd
			if inNext[v] {
				return false, nil
			}
			inNext[v] = true
			pushed = append(pushed, v)
			return false, c.push(nxt, v)
		}}
	finish, err := m.run(start)
	for _, v := range pushed {
		inNext[v] = false
	}
	return int64(len(pushed)), finish, err
}
