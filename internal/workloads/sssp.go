package workloads

import (
	"affinityalloc/internal/cpu"
	"affinityalloc/internal/dstruct"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/graph"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/stream"
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

// DefaultSSSP returns a host-scaled sssp on a weighted Kronecker graph.
func DefaultSSSP() SSSP {
	g := graph.Kronecker(15, 16, 42)
	g.AddUniformWeights(1, 255, 42)
	return SSSP{G: g, Src: -1}
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

	var curG, nxtG *dstruct.GlobalQueue
	var curS, nxtS *dstruct.SpatialQueue
	if mode == sys.AffAlloc {
		curS = gd.sq
		nxtS, err = dstruct.NewSpatialQueue(s.RT, gd.prop, int64(s.NumCores()), 1)
		if err != nil {
			return Result{}, err
		}
		s.PreloadArray(nxtS.Info())
		s.PreloadArray(nxtS.TailsInfo())
		if _, _, err := curS.Push(src); err != nil {
			return Result{}, err
		}
	} else {
		curG = gd.gq
		nxtG, err = dstruct.NewGlobalQueue(s.RT, n+1)
		if err != nil {
			return Result{}, err
		}
		s.Mem.Preload(nxtG.TailAddr(), 8)
		s.Mem.Preload(nxtG.SlotAddr(0), 4*(n+1))
		if _, _, err := curG.Push(src); err != nil {
			return Result{}, err
		}
	}

	var finish engine.Time
	for frontier := int64(1); frontier > 0; {
		if mode == sys.AffAlloc {
			nxtS.Reset()
		} else {
			nxtG.Reset()
		}
		frontier, finish, err = w.relaxRound(s, gd, mode, dist, inNext, curG, nxtG, curS, nxtS, finish)
		if err != nil {
			return Result{}, err
		}
		curG, nxtG = nxtG, curG
		curS, nxtS = nxtS, curS
	}

	cs := newChecksum()
	for v := int64(0); v < n; v++ {
		cs.addU64(uint64(dist[v]))
	}
	return Result{Name: w.Name(), Mode: mode, Metrics: s.Collect(finish), Checksum: cs.sum()}, nil
}

// relaxRound relaxes every out-edge of the current frontier.
func (w SSSP) relaxRound(s *sys.System, gd *graphData, mode sys.Mode, dist []int64, inNext []bool,
	curG, nxtG *dstruct.GlobalQueue, curS, nxtS *dstruct.SpatialQueue, start engine.Time) (int64, engine.Time, error) {

	g := w.G
	nC := s.NumCores()
	finish := start
	var active int64
	var pushed []int32

	src := flattenFrontier(mode == sys.AffAlloc, curG, curS)
	total := src.total
	push := func(v int32) (memsim.Addr, memsim.Addr, error) {
		if mode == sys.AffAlloc {
			return nxtS.Push(v)
		}
		return nxtG.Push(v)
	}

	// Dynamic scheduling: see BFS.pushIter.
	var cursor int64
	var outerErr error
	if mode == sys.InCore {
		for c := 0; c < nC; c++ {
			s.Cores[c].SetNow(start)
		}
		interleaved(nC, func(c int) bool {
			i := cursor
			if i >= total || outerErr != nil {
				return false
			}
			cursor++
			cc := s.Cores[c]
			u := src.get(i)
			cc.Load(src.addr(i), cpu.Streaming)
			cc.Load(gd.idx.ElemAddr(int64(u)), cpu.Irregular)
			du := dist[u]
			for k := g.Index[u]; k < g.Index[u+1]; k++ {
				v := g.Edges[k]
				if k%int64(memsim.LineSize/gd.weightsPerEdge) == 0 || k == g.Index[u] {
					cc.Load(gd.edgeAddr(k), cpu.Streaming)
				}
				cc.Atomic(gd.prop.ElemAddr(int64(v)))
				nd := du + int64(g.Weights[k])
				if nd < dist[v] {
					dist[v] = nd
					if !inNext[v] {
						inNext[v] = true
						active++
						pushed = append(pushed, v)
						cc.Atomic(nxtG.TailAddr())
						_, slotAddr, err := push(v)
						if err != nil {
							outerErr = err
							return false
						}
						cc.Store(slotAddr, cpu.Irregular)
					}
				}
			}
			return cursor < total
		})
		for _, v := range pushed {
			inNext[v] = false
		}
		return active, coreFinish(s.Cores), outerErr
	}

	// NSC relaxation.
	type st struct {
		i      int64
		qS     *stream.AffineStream
		idxS   *stream.AffineStream
		edgeS  *stream.AffineStream
		chain  *stream.ChainStream
		ops    *stream.OpWindow
		window []engine.Time
		wIdx   int
	}
	states := make([]*st, nC)
	for c := 0; c < nC; c++ {
		state := &st{window: make([]engine.Time, passWindow), ops: stream.NewOpWindow(opWindow)}
		if total > 0 {
			state.qS = stream.NewAffineStream(s.SE, c, src.addr(0), 4, 1, total, false)
			state.qS.Start(start)
		}
		if mode == sys.AffAlloc {
			state.idxS = stream.NewAffineStream(s.SE, c, gd.heads.Base, gd.heads.ElemStride, 1, int64(g.N), false)
			state.chain = stream.NewChainStream(s.SE, c, passWindow)
		} else {
			state.idxS = stream.NewAffineStream(s.SE, c, gd.idx.Base, gd.idx.ElemStride, 1, int64(g.N)+1, false)
			state.edgeS = stream.NewAffineStream(s.SE, c, gd.edges.Base, gd.edges.ElemStride, 1, g.NumEdges(), false)
		}
		states[c] = state
	}
	interleaved(nC, func(c int) bool {
		state := states[c]
		for k := 0; k < chunkVerts; k++ {
			i := cursor
			if i >= total || outerErr != nil {
				return false
			}
			cursor++
			notBefore := engine.MaxTime(start, state.window[state.wIdx])
			_, tq := state.qS.AddrReady(src.addr(i), notBefore)
			u := src.get(i)
			_, tIdx := state.idxS.AddrReady(gd.headAddr(u), tq)
			t := tIdx
			last := t
			du := dist[u]

			relax := func(v int32, weight int32, te engine.Time, eBank int) {
				target := gd.prop.ElemAddr(int64(v))
				done, vBank := s.SE.RemoteOp(state.ops.Issue(te), gd.indirectFrom(s, eBank, target), target, true, false)
				nd := du + int64(weight)
				if nd < dist[v] {
					dist[v] = nd
					if !inNext[v] {
						inNext[v] = true
						active++
						pushed = append(pushed, v)
						tailAddr, slotAddr, err := push(v)
						if err != nil {
							outerErr = err
							return
						}
						done = queuePushTiming(s, mode == sys.AffAlloc, done, vBank, tailAddr, slotAddr)
					}
				}
				state.ops.Complete(done)
				last = engine.MaxTime(last, done)
			}

			if mode == sys.AffAlloc {
				state.chain.BeginChain(t)
				nodeB := gd.lcsr.NodeBytes()
				for _, node := range gd.lcsr.Chains[u] {
					tn := state.chain.VisitNode(node.Addr, nodeB)
					for e, v := range node.Edges {
						relax(v, node.Weights[e], tn, state.chain.Bank())
						if outerErr != nil {
							return false
						}
					}
				}
				state.chain.EndChain()
			} else {
				for k := g.Index[u]; k < g.Index[u+1]; k++ {
					eb, te := state.edgeS.AddrReady(gd.edgeAddr(k), t)
					relax(g.Edges[k], g.Weights[k], te, eb)
					if outerErr != nil {
						return false
					}
				}
			}
			state.window[state.wIdx] = last
			state.wIdx = (state.wIdx + 1) % len(state.window)
			if last > finish {
				finish = last
			}
		}
		return cursor < total
	})
	for _, v := range pushed {
		inNext[v] = false
	}
	return active, finish, outerErr
}
