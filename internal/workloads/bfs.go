package workloads

import (
	"fmt"

	"affinityalloc/internal/cpu"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/graph"
	"affinityalloc/internal/stream"
	"affinityalloc/internal/sys"
)

// IterTrace records one BFS iteration's timing for Fig 18.
type IterTrace struct {
	Iter   int
	Dir    graph.Direction
	Start  engine.Time
	End    engine.Time
	Active int64
}

// BFS is the bfs workload of Table 3: level-synchronous breadth-first
// search with a per-iteration direction policy. The In-Core configuration
// uses GAP's switching heuristic; the NSC configurations use the paper's
// extended policy (§7.2) unless a fixed policy is forced.
type BFS struct {
	G  *graph.Graph
	GT *graph.Graph
	// Policy forces a direction policy for every mode (nil: per-mode
	// defaults as in §7.2).
	Policy graph.DirectionPolicy
	Src    int32 // -1: highest-degree vertex
	// Oracle enables the Fig-6 chunked-placement study (CSR modes only).
	Oracle *EdgeOracle
	// ForceGlobalQueue replaces the spatially distributed queue with the
	// conventional global queue under Aff-Alloc — the Fig-9 co-design
	// ablation.
	ForceGlobalQueue bool
	// LinkedNodeBytes overrides the linked-CSR node size (ablation;
	// 0 = the default 64B cache line).
	LinkedNodeBytes int
}

// Name implements Workload.
func (w BFS) Name() string {
	if w.Policy == nil {
		return "bfs"
	}
	return "bfs_" + w.Policy.Name()
}

// policyFor returns the direction policy for a mode (§7.2).
func (w BFS) policyFor(mode sys.Mode) graph.DirectionPolicy {
	if w.Policy != nil {
		return w.Policy
	}
	if mode == sys.InCore {
		return graph.DefaultGAPPolicy()
	}
	return graph.DefaultPaperPolicy()
}

// Run implements Workload.
func (w BFS) Run(s *sys.System, mode sys.Mode) (Result, error) {
	res, _, err := w.RunTraced(s, mode)
	return res, err
}

// RunTraced is Run plus the per-iteration trace (Fig 18).
func (w BFS) RunTraced(s *sys.System, mode sys.Mode) (Result, []IterTrace, error) {
	g, gt := w.G, w.GT
	policy := w.policyFor(mode)
	_, pushOnly := policy.(graph.PushOnly)
	gd, err := buildGraphData(s, mode, g, gt, graphSetup{
		needPull:  !pushOnly,
		needQueue: true,
		propElem:  4,
		oracle:    w.Oracle,
		nodeBytes: w.LinkedNodeBytes,
	})
	if err != nil {
		return Result{}, nil, err
	}

	src := w.Src
	if src < 0 {
		src = g.MaxDegreeVertex()
	}
	n := int64(g.N)
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0

	// Frontier queues (double buffered). The pull direction produces the
	// next frontier by scanning, so queues only matter for push.
	cur, nxt, err := newFrontierQueues(s, gd, mode == sys.AffAlloc && !w.ForceGlobalQueue, src)
	if err != nil {
		return Result{}, nil, err
	}

	visited := int64(1)
	frontier := int64(1)
	scout := g.Degree(src)
	totalEdges := float64(g.NumEdges())
	dir := graph.Push
	var traces []IterTrace
	var finish engine.Time

	for depth := int32(1); frontier > 0; depth++ {
		st := graph.StepState{
			VisitedFrac: float64(visited) / float64(n),
			ScoutFrac:   float64(scout) / totalEdges,
			AwakeFrac:   float64(frontier) / float64(n),
		}
		prevDir := dir
		dir = policy.Decide(dir, st)
		iterStart := finish

		if dir == graph.Push && prevDir == graph.Pull {
			// Rebuild the frontier queue by scanning levels.
			if finish, err = w.rebuildQueue(s, gd, mode, cur, level, depth-1, finish); err != nil {
				return Result{}, nil, err
			}
		}
		// The next-frontier queue must be empty before expansion.
		nxt.reset()
		var active int64
		if active, finish, err = w.iter(s, gd, mode, dir, level, depth, cur, nxt, finish); err != nil {
			return Result{}, nil, err
		}
		if dir == graph.Push {
			cur, nxt = nxt, cur
		}

		// Recompute frontier statistics functionally.
		frontier = active
		visited += active
		scout = 0
		for v := int32(0); v < g.N; v++ {
			if level[v] == depth {
				scout += g.Degree(v)
			}
		}
		traces = append(traces, IterTrace{
			Iter: int(depth - 1), Dir: dir,
			Start: iterStart, End: finish, Active: active,
		})
	}

	cs := newChecksum()
	for v := int64(0); v < n; v++ {
		cs.addU32(uint32(level[v]))
	}
	// Record each iteration as a sim-time phase so the Chrome-trace
	// exporter can render the Fig-18 push/pull timeline.
	for _, tr := range traces {
		s.MarkPhase(fmt.Sprintf("bfs iter %d (%v)", tr.Iter, tr.Dir), "bfs", tr.Start, tr.End)
	}
	res := Result{Name: w.Name(), Mode: mode, Metrics: s.Collect(finish), Checksum: cs.sum()}
	return res, traces, nil
}

// iter expands one level in direction dir. Top-down (push), each
// frontier vertex claims its unvisited out-neighbors and queues them in
// nxt; bottom-up (pull), every unvisited vertex scans its in-neighbors
// for a member of the current frontier.
func (w BFS) iter(s *sys.System, gd *graphData, mode sys.Mode, dir graph.Direction, level []int32, depth int32,
	cur, nxt frontierQueue, start engine.Time) (int64, engine.Time, error) {

	var active int64
	m := edgeMap{s: s, gd: gd, mode: mode, dir: &gd.out, from: queueFrontier, queue: cur,
		edge: func(c *mapCore, _, v int32, _ int64) (bool, error) {
			c.update(gd.prop.ElemAddr(int64(v)))
			if level[v] != -1 {
				return false, nil
			}
			level[v] = depth
			active++
			return false, c.push(nxt, v)
		}}
	if dir == graph.Pull {
		m.dir, m.from, m.read = &gd.in, partFrontier, filterRead
		m.skip = func(v int32) bool { return level[v] != -1 }
		m.edge = func(c *mapCore, v, u int32, _ int64) (bool, error) {
			c.gather(gd.prop.ElemAddr(int64(u)), 1)
			if level[u] != depth-1 {
				return false, nil
			}
			level[v] = depth
			active++
			c.store(gd.prop.ElemAddr(int64(v)))
			return true, nil
		}
	}
	finish, err := m.run(start)
	return active, finish, err
}

// rebuildQueue refills the push frontier queue after pull iterations by
// scanning the level array (what GAP's direction switch does too).
func (w BFS) rebuildQueue(s *sys.System, gd *graphData, mode sys.Mode, q frontierQueue, level []int32, frontierDepth int32,
	start engine.Time) (engine.Time, error) {

	q.reset()
	nC := s.NumCores()
	n := int64(w.G.N)
	finish := start

	if mode == sys.InCore {
		for c := 0; c < nC; c++ {
			s.Cores[c].SetNow(start)
		}
		for v := int32(0); int64(v) < n; v++ {
			cc := s.Cores[int(int64(v)*int64(nC)/n)]
			if int64(v)%16 == 0 {
				cc.Load(gd.prop.ElemAddr(int64(v)), cpu.Streaming)
			}
			if level[v] == frontierDepth {
				if _, err := q.push(s, cc, 0, 0, v); err != nil {
					return 0, err
				}
			}
		}
		return coreFinish(s.Cores), nil
	}

	// NSC: an affine scan per core with pushes.
	for c := 0; c < nC; c++ {
		loV, hiV := partition(n, nC, c)
		ps := stream.NewAffineStream(s.SE, c, gd.prop.ElemAddr(loV), gd.prop.ElemStride, 1, hiV-loV, false)
		ps.Start(start)
		for v := loV; v < hiV; v++ {
			vb, t := ps.AddrReady(gd.prop.ElemAddr(v), start)
			if level[v] == frontierDepth {
				done, err := q.push(s, nil, t, vb, int32(v))
				if err != nil {
					return 0, err
				}
				finish = engine.MaxTime(finish, done)
			}
		}
		finish = engine.MaxTime(finish, ps.Finish())
	}
	return finish, nil
}
