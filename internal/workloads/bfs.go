package workloads

import (
	"fmt"

	"affinityalloc/internal/cpu"
	"affinityalloc/internal/dstruct"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/graph"
	"affinityalloc/internal/memsim"
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

// DefaultBFS returns a host-scaled bfs on a Kronecker graph.
func DefaultBFS() BFS {
	g := graph.Kronecker(15, 16, 42)
	return BFS{G: g, GT: g.Transpose(), Src: -1}
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
	needPull := true
	if _, pushOnly := policy.(graph.PushOnly); pushOnly {
		needPull = false
	}
	gd, err := buildGraphData(s, mode, g, gt, graphSetup{
		needPull:  needPull,
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
	useSpatial := mode == sys.AffAlloc && !w.ForceGlobalQueue
	var curG, nxtG *dstruct.GlobalQueue
	var curS, nxtS *dstruct.SpatialQueue
	if useSpatial {
		curS = gd.sq
		nxtS, err = dstruct.NewSpatialQueue(s.RT, gd.prop, int64(s.NumCores()), 1)
		if err != nil {
			return Result{}, nil, err
		}
		s.PreloadArray(nxtS.Info())
		s.PreloadArray(nxtS.TailsInfo())
		if _, _, err := curS.Push(src); err != nil {
			return Result{}, nil, err
		}
	} else {
		curG = gd.gq
		if curG == nil {
			// Aff-Alloc built a spatial queue by default; the ablation
			// wants global queues instead.
			curG, err = dstruct.NewGlobalQueue(s.RT, n+1)
			if err != nil {
				return Result{}, nil, err
			}
			s.Mem.Preload(curG.TailAddr(), 8)
			s.Mem.Preload(curG.SlotAddr(0), 4*(n+1))
		}
		nxtG, err = dstruct.NewGlobalQueue(s.RT, n+1)
		if err != nil {
			return Result{}, nil, err
		}
		s.Mem.Preload(nxtG.TailAddr(), 8)
		s.Mem.Preload(nxtG.SlotAddr(0), 4*(n+1))
		if _, _, err := curG.Push(src); err != nil {
			return Result{}, nil, err
		}
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

		var active int64
		if dir == graph.Push {
			if prevDir == graph.Pull {
				// Rebuild the frontier queue by scanning levels.
				finish = w.rebuildQueue(s, gd, mode, useSpatial, level, depth-1, curG, curS, finish)
			}
			// The next-frontier queue must be empty before expansion.
			if useSpatial {
				nxtS.Reset()
			} else {
				nxtG.Reset()
			}
			active, finish = w.pushIter(s, gd, mode, useSpatial, level, depth, curG, nxtG, curS, nxtS, finish)
			curG, nxtG = nxtG, curG
			curS, nxtS = nxtS, curS
		} else {
			active, finish = w.pullIter(s, gd, mode, level, depth, finish)
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

// queuePushTiming charges a successful update's frontier push, starting
// at the CAS completion time at the updated vertex's bank. spatial marks
// the spatially distributed queue, whose tail and slot are local to the
// vertex's bank.
func queuePushTiming(s *sys.System, spatial bool, done engine.Time, vBank int, tailAddr, slotAddr memsim.Addr) engine.Time {
	if spatial {
		// Spatial queue: tail and slot are on the vertex's bank.
		t, _ := s.SE.RemoteOp(done, vBank, tailAddr, true, false)
		t, _ = s.SE.RemoteOp(t, vBank, slotAddr, true, false)
		return t
	}
	// Global queue: predicated streams at the tail's bank, then the slot
	// write wherever the tail points (Fig 2c).
	t, tailBank := s.SE.RemoteOp(done, vBank, tailAddr, true, false)
	t, _ = s.SE.RemoteOp(t, tailBank, slotAddr, true, false)
	return t
}

// pushIter expands the current frontier top-down.
func (w BFS) pushIter(s *sys.System, gd *graphData, mode sys.Mode, useSpatial bool, level []int32, depth int32,
	curG, nxtG *dstruct.GlobalQueue, curS, nxtS *dstruct.SpatialQueue, start engine.Time) (int64, engine.Time) {

	g := w.G
	nC := s.NumCores()
	finish := start
	var active int64

	src := flattenFrontier(useSpatial, curG, curS)
	total := src.total

	push := func(v int32) (memsim.Addr, memsim.Addr, error) {
		if useSpatial {
			return nxtS.Push(v)
		}
		return nxtG.Push(v)
	}

	// Frontier items are distributed dynamically (OpenMP dynamic
	// scheduling): hub vertices cluster at low queue indexes, and a
	// static partition would leave one core holding most of the edges.
	var cursor int64

	if mode == sys.InCore {
		for c := 0; c < nC; c++ {
			s.Cores[c].SetNow(start)
		}
		var outerErr error
		interleaved(nC, func(c int) bool {
			cc := s.Cores[c]
			for k := 0; k < chunkVerts; k++ {
				i := cursor
				if i >= total || outerErr != nil {
					return false
				}
				cursor++
				u := src.get(i)
				cc.Load(src.addr(i), cpu.Streaming)
				cc.Load(gd.idx.ElemAddr(int64(u)), cpu.Irregular)
				for k := g.Index[u]; k < g.Index[u+1]; k++ {
					v := g.Edges[k]
					if k%int64(memsim.LineSize/gd.weightsPerEdge) == 0 || k == g.Index[u] {
						cc.Load(gd.edgeAddr(k), cpu.Streaming)
					}
					cc.Atomic(gd.prop.ElemAddr(int64(v)))
					if level[v] == -1 {
						level[v] = depth
						active++
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
		if outerErr != nil {
			return 0, 0
		}
		return active, coreFinish(s.Cores)
	}

	// NSC push.
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
	var outerErr error
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
			// Indirect read of the index/head entry for u.
			_, tIdx := state.idxS.AddrReady(gd.headAddr(u), tq)
			t := tIdx
			last := t

			handleEdge := func(v int32, te engine.Time, eBank int) {
				target := gd.prop.ElemAddr(int64(v))
				done, vBank := s.SE.RemoteOp(state.ops.Issue(te), gd.indirectFrom(s, eBank, target), target, true, false)
				if level[v] == -1 {
					level[v] = depth
					active++
					tailAddr, slotAddr, err := push(v)
					if err != nil {
						outerErr = err
						return
					}
					done = queuePushTiming(s, useSpatial, done, vBank, tailAddr, slotAddr)
				}
				state.ops.Complete(done)
				last = engine.MaxTime(last, done)
			}

			if mode == sys.AffAlloc {
				state.chain.BeginChain(t)
				nodeB := gd.lcsr.NodeBytes()
				for _, node := range gd.lcsr.Chains[u] {
					tn := state.chain.VisitNode(node.Addr, nodeB)
					for _, v := range node.Edges {
						handleEdge(v, tn, state.chain.Bank())
						if outerErr != nil {
							return false
						}
					}
				}
				state.chain.EndChain()
			} else {
				for k := g.Index[u]; k < g.Index[u+1]; k++ {
					eb, te := state.edgeS.AddrReady(gd.edgeAddr(k), t)
					handleEdge(g.Edges[k], te, eb)
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
	if outerErr != nil {
		return 0, 0
	}
	return active, finish
}

// frontierView flattens a frontier queue for dynamic scheduling.
type frontierView struct {
	total int64
	get   func(i int64) int32
	addr  func(i int64) memsim.Addr
}

// flattenFrontier builds a flat view over the mode's frontier queue. For
// the spatial queue, items of all partitions are concatenated in
// partition order.
func flattenFrontier(spatial bool, gq *dstruct.GlobalQueue, sq *dstruct.SpatialQueue) frontierView {
	if !spatial {
		total := gq.Len()
		return frontierView{
			total: total,
			get:   func(i int64) int32 { return gq.Get(i) },
			addr:  func(i int64) memsim.Addr { return gq.SlotAddr(i) },
		}
	}
	lens := sq.Lens()
	prefix := make([]int64, len(lens)+1)
	for p, l := range lens {
		prefix[p+1] = prefix[p] + l
	}
	locate := func(i int64) (int64, int64) {
		// Binary search the owning partition.
		lo, hi := 0, len(lens)
		for lo < hi {
			mid := (lo + hi) / 2
			if prefix[mid+1] <= i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return int64(lo), i - prefix[lo]
	}
	return frontierView{
		total: prefix[len(lens)],
		get: func(i int64) int32 {
			p, j := locate(i)
			return sq.Get(p, j)
		},
		addr: func(i int64) memsim.Addr {
			p, j := locate(i)
			return sq.SlotAddr(p, j)
		},
	}
}

// pullIter expands the frontier bottom-up: every unvisited vertex scans
// its in-neighbors for a member of the current frontier.
func (w BFS) pullIter(s *sys.System, gd *graphData, mode sys.Mode, level []int32, depth int32, start engine.Time) (int64, engine.Time) {
	gt := w.GT
	nC := s.NumCores()
	finish := start
	var active int64

	if mode == sys.InCore {
		type st struct{ v, hi int32 }
		states := make([]*st, nC)
		for c := 0; c < nC; c++ {
			lo, hi := partition(int64(gt.N), nC, c)
			states[c] = &st{v: int32(lo), hi: int32(hi)}
			s.Cores[c].SetNow(start)
		}
		interleaved(nC, func(c int) bool {
			state := states[c]
			if state.v >= state.hi {
				return false
			}
			cc := s.Cores[c]
			for k := 0; k < chunkVerts && state.v < state.hi; k++ {
				v := state.v
				state.v++
				cc.Load(gd.prop.ElemAddr(int64(v)), cpu.Streaming)
				if level[v] != -1 {
					continue
				}
				cc.Load(gd.idxT.ElemAddr(int64(v)), cpu.Streaming)
				for i := gt.Index[v]; i < gt.Index[v+1]; i++ {
					u := gt.Edges[i]
					if i%int64(memsim.LineSize/gd.weightsPerEdge) == 0 || i == gt.Index[v] {
						cc.Load(gd.edgeAddrT(i), cpu.Streaming)
					}
					cc.Load(gd.prop.ElemAddr(int64(u)), cpu.Irregular)
					cc.Compute(1)
					if level[u] == depth-1 {
						level[v] = depth
						active++
						cc.Store(gd.prop.ElemAddr(int64(v)), cpu.Streaming)
						break
					}
				}
			}
			return state.v < state.hi
		})
		return active, coreFinish(s.Cores)
	}

	// NSC pull.
	type st struct {
		v, hi  int32
		propS  *stream.AffineStream
		idxS   *stream.AffineStream
		edgeS  *stream.AffineStream
		chain  *stream.ChainStream
		ops    *stream.OpWindow
		window []engine.Time
		wIdx   int
	}
	states := make([]*st, nC)
	for c := 0; c < nC; c++ {
		lo, hi := partition(int64(gt.N), nC, c)
		state := &st{v: int32(lo), hi: int32(hi), window: make([]engine.Time, passWindow), ops: stream.NewOpWindow(opWindow)}
		state.propS = stream.NewAffineStream(s.SE, c, gd.prop.ElemAddr(lo), gd.prop.ElemStride, 1, hi-lo, false)
		state.propS.Start(start)
		if mode == sys.AffAlloc {
			state.idxS = stream.NewAffineStream(s.SE, c, gd.headsT.ElemAddr(lo), gd.headsT.ElemStride, 1, hi-lo, false)
			state.chain = stream.NewChainStream(s.SE, c, passWindow)
		} else {
			state.idxS = stream.NewAffineStream(s.SE, c, gd.idxT.ElemAddr(lo), gd.idxT.ElemStride, 1, hi-lo, false)
			state.edgeS = stream.NewAffineStream(s.SE, c, gd.edgesT.Base, gd.edgesT.ElemStride, 1, gt.NumEdges(), false)
		}
		state.idxS.Start(start)
		states[c] = state
	}
	interleaved(nC, func(c int) bool {
		state := states[c]
		if state.v >= state.hi {
			return false
		}
		for k := 0; k < chunkVerts && state.v < state.hi; k++ {
			v := state.v
			state.v++
			notBefore := engine.MaxTime(start, state.window[state.wIdx])
			_, tp := state.propS.AddrReady(gd.prop.ElemAddr(int64(v)), notBefore)
			if level[v] != -1 {
				continue
			}
			_, t := state.idxS.AddrReady(gd.headAddrT(v), tp)
			last := t
			scan := func(u int32, te engine.Time, eBank int) bool {
				target := gd.prop.ElemAddr(int64(u))
				done, _ := s.SE.RemoteOp(state.ops.Issue(te), gd.indirectFrom(s, eBank, target), target, false, true)
				state.ops.Complete(done)
				last = engine.MaxTime(last, done)
				if level[u] == depth-1 {
					level[v] = depth
					active++
					wdone, _ := s.SE.RemoteOp(done, eBank, gd.prop.ElemAddr(int64(v)), true, false)
					last = engine.MaxTime(last, wdone)
					return true
				}
				return false
			}
			if mode == sys.AffAlloc {
				state.chain.BeginChain(t)
				nodeB := gd.lcsrT.NodeBytes()
			scanChainsA:
				for _, node := range gd.lcsrT.Chains[v] {
					tn := state.chain.VisitNode(node.Addr, nodeB)
					for _, u := range node.Edges {
						if scan(u, tn, state.chain.Bank()) {
							break scanChainsA
						}
					}
				}
				state.chain.EndChain()
			} else {
			scanEdges:
				for i := gt.Index[v]; i < gt.Index[v+1]; i++ {
					eb, te := state.edgeS.AddrReady(gd.edgeAddrT(i), t)
					if scan(gt.Edges[i], te, eb) {
						break scanEdges
					}
				}
			}
			state.window[state.wIdx] = last
			state.wIdx = (state.wIdx + 1) % len(state.window)
			if last > finish {
				finish = last
			}
		}
		return state.v < state.hi
	})
	return active, finish
}

// rebuildQueue refills the push frontier queue after pull iterations by
// scanning the level array (what GAP's direction switch does too).
func (w BFS) rebuildQueue(s *sys.System, gd *graphData, mode sys.Mode, useSpatial bool, level []int32, frontierDepth int32,
	curG *dstruct.GlobalQueue, curS *dstruct.SpatialQueue, start engine.Time) engine.Time {

	if useSpatial {
		curS.Reset()
	} else {
		curG.Reset()
	}
	nC := s.NumCores()
	n := int64(w.G.N)
	finish := start

	if mode == sys.InCore {
		for c := 0; c < nC; c++ {
			s.Cores[c].SetNow(start)
		}
		for v := int32(0); int64(v) < n; v++ {
			c := int(int64(v) * int64(nC) / n)
			cc := s.Cores[c]
			if int64(v)%16 == 0 {
				cc.Load(gd.prop.ElemAddr(int64(v)), cpu.Streaming)
			}
			if level[v] == frontierDepth {
				cc.Atomic(curG.TailAddr())
				_, slotAddr, err := curG.Push(v)
				if err == nil {
					cc.Store(slotAddr, cpu.Irregular)
				}
			}
		}
		return coreFinish(s.Cores)
	}

	// NSC: an affine scan per core with pushes.
	for c := 0; c < nC; c++ {
		loV, hiV := partition(n, nC, c)
		ps := stream.NewAffineStream(s.SE, c, gd.prop.ElemAddr(loV), gd.prop.ElemStride, 1, hiV-loV, false)
		ps.Start(start)
		for v := loV; v < hiV; v++ {
			vb, t := ps.AddrReady(gd.prop.ElemAddr(v), start)
			if level[v] == frontierDepth {
				var tailAddr, slotAddr memsim.Addr
				var err error
				if useSpatial {
					tailAddr, slotAddr, err = curS.Push(int32(v))
				} else {
					tailAddr, slotAddr, err = curG.Push(int32(v))
				}
				if err == nil {
					done := queuePushTiming(s, useSpatial, t, vb, tailAddr, slotAddr)
					if done > finish {
						finish = done
					}
				}
			}
		}
		if f := ps.Finish(); f > finish {
			finish = f
		}
	}
	return finish
}
