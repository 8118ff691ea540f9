package workloads

import (
	"math/rand"

	"affinityalloc/internal/core"
	"affinityalloc/internal/cpu"
	"affinityalloc/internal/dstruct"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/graph"
	"affinityalloc/internal/stream"
	"affinityalloc/internal/sys"
)

// DynGraph exercises the §8 extension: an evolving graph held in dynamic
// linked CSR. Batches of edge insertions and deletions interleave with
// analytic queries (one push-style rank scatter per batch). All three
// configurations use the same pointer-based structure — the paper's
// point is that such structures need no preprocessing to benefit from
// affinity allocation — so the configurations differ only in where the
// allocator puts the nodes and property entries.
type DynGraph struct {
	G       *graph.Graph
	Batches int
	// UpdatesPerBatch is the number of edge mutations per batch
	// (half inserts, half deletes).
	UpdatesPerBatch int
}

// Name implements Workload.
func (w DynGraph) Name() string { return "dyn_graph" }

// Run implements Workload.
func (w DynGraph) Run(s *sys.System, mode sys.Mode) (Result, error) {
	g := w.G
	n := int64(g.N)

	// Property array (ranks), partitioned under Aff-Alloc.
	prop, err := s.Alloc(mode, core.AffineSpec{ElemSize: 8, NumElem: n, Partition: true})
	if err != nil {
		return Result{}, err
	}
	s.PreloadArray(prop)

	// The evolving structure: linked CSR in every configuration.
	alloc := dalloc(s, mode)
	lc, err := dstruct.BuildLinkedCSR(alloc, g, prop)
	if err != nil {
		return Result{}, err
	}
	preloadLinkedCSR(s, lc)

	rng := rand.New(rand.NewSource(workloadSeed(s, 23)))
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}

	cs := newChecksum()
	var finish engine.Time

	for batch := 0; batch < w.Batches; batch++ {
		finish, err = w.applyUpdates(s, mode, alloc, lc, prop, rng, finish)
		if err != nil {
			return Result{}, err
		}
		finish = w.queryPass(s, mode, lc, prop, ranks, finish)
		// Fold a structure fingerprint into the checksum.
		for u := int32(0); u < g.N; u += 97 {
			cs.addU64(uint64(lc.DynamicDegree(u)))
		}
	}
	for i := int64(0); i < n; i += 101 {
		cs.addF32(float32(ranks[i]))
	}
	return Result{Name: w.Name(), Mode: mode, Metrics: s.Collect(finish), Checksum: cs.sum()}, nil
}

// applyUpdates performs one mutation batch, charging the traversal to
// the tail, the allocation writes, and (under NSC) the pointer chase to
// reach the mutation point.
func (w DynGraph) applyUpdates(s *sys.System, mode sys.Mode, alloc dstruct.Alloc, lc *dstruct.LinkedCSR,
	prop *core.ArrayInfo, rng *rand.Rand, start engine.Time) (engine.Time, error) {

	g := w.G
	nC := s.NumCores()
	finish := start

	type update struct {
		u, v   int32
		insert bool
	}
	updates := make([]update, w.UpdatesPerBatch)
	for i := range updates {
		u := int32(rng.Intn(int(g.N)))
		if i%2 == 0 || lc.DynamicDegree(u) == 0 {
			updates[i] = update{u: u, v: int32(rng.Intn(int(g.N))), insert: true}
		} else {
			edges := lc.DynamicEdges(u)
			updates[i] = update{u: u, v: edges[rng.Intn(len(edges))], insert: false}
		}
	}

	var cursor int
	var outerErr error
	if mode == sys.InCore {
		for c := 0; c < nC; c++ {
			s.Cores[c].SetNow(start)
		}
		interleaved(nC, func(c int) bool {
			if cursor >= len(updates) || outerErr != nil {
				return false
			}
			up := updates[cursor]
			cursor++
			cc := s.Cores[c]
			// Walk the chain to the mutation point.
			for _, node := range lc.Chains[up.u] {
				cc.Load(node.Addr, cpu.Dependent)
			}
			outerErr = w.applyOne(alloc, lc, prop, up.u, up.v, up.insert)
			cc.Store(prop.ElemAddr(int64(up.u)), cpu.Irregular)
			return cursor < len(updates)
		})
		return engine.MaxTime(finish, coreFinish(s.Cores)), outerErr
	}

	chains := make([]*stream.ChainStream, nC)
	for c := range chains {
		chains[c] = stream.NewChainStream(s.SE, c, passWindow)
	}
	interleaved(nC, func(c int) bool {
		if cursor >= len(updates) || outerErr != nil {
			return false
		}
		up := updates[cursor]
		cursor++
		ch := chains[c]
		ch.BeginChain(start)
		for _, node := range lc.Chains[up.u] {
			ch.VisitNode(node.Addr, lc.NodeBytes())
		}
		outerErr = w.applyOne(alloc, lc, prop, up.u, up.v, up.insert)
		// The mutation itself: one write at the mutated node's bank.
		done, _ := s.SE.RemoteOp(ch.Now(), ch.Bank(), prop.ElemAddr(int64(up.u)), true, false)
		ch.EndChain()
		if done > finish {
			finish = done
		}
		return cursor < len(updates)
	})
	return finish, outerErr
}

func (w DynGraph) applyOne(alloc dstruct.Alloc, lc *dstruct.LinkedCSR, prop *core.ArrayInfo, u, v int32, insert bool) error {
	if insert {
		return lc.InsertEdge(alloc, prop, u, v, 0)
	}
	_, err := lc.DeleteEdge(alloc, u, v)
	return err
}

// queryPass runs one push-style rank scatter over the current structure.
func (w DynGraph) queryPass(s *sys.System, mode sys.Mode, lc *dstruct.LinkedCSR, prop *core.ArrayInfo,
	ranks []float64, start engine.Time) engine.Time {

	g := w.G
	nC := s.NumCores()
	finish := start
	next := make([]float64, len(ranks))

	if mode == sys.InCore {
		var cursor int32
		for c := 0; c < nC; c++ {
			s.Cores[c].SetNow(start)
		}
		interleaved(nC, func(c int) bool {
			cc := s.Cores[c]
			for k := 0; k < chunkVerts; k++ {
				u := cursor
				if u >= g.N {
					return false
				}
				cursor++
				deg := lc.DynamicDegree(u)
				if deg == 0 {
					continue
				}
				contrib := ranks[u] / float64(deg)
				for _, node := range lc.Chains[u] {
					cc.Load(node.Addr, cpu.Dependent)
					for _, v := range node.Edges {
						cc.Atomic(prop.ElemAddr(int64(v)))
						next[v] += contrib
					}
				}
			}
			return cursor < g.N
		})
		finish = engine.MaxTime(finish, coreFinish(s.Cores))
	} else {
		type st struct {
			chain *stream.ChainStream
			ops   *stream.OpWindow
		}
		states := make([]*st, nC)
		for c := range states {
			states[c] = &st{chain: stream.NewChainStream(s.SE, c, passWindow), ops: stream.NewOpWindow(opWindow)}
		}
		var cursor int32
		interleaved(nC, func(c int) bool {
			state := states[c]
			for k := 0; k < chunkVerts; k++ {
				u := cursor
				if u >= g.N {
					return false
				}
				cursor++
				deg := lc.DynamicDegree(u)
				if deg == 0 {
					continue
				}
				contrib := ranks[u] / float64(deg)
				state.chain.BeginChain(start)
				for _, node := range lc.Chains[u] {
					tn := state.chain.VisitNode(node.Addr, lc.NodeBytes())
					for _, v := range node.Edges {
						done, _ := s.SE.RemoteOp(state.ops.Issue(tn), state.chain.Bank(), prop.ElemAddr(int64(v)), true, false)
						state.ops.Complete(done)
						if done > finish {
							finish = done
						}
						next[v] += contrib
					}
				}
				state.chain.EndChain()
			}
			return cursor < g.N
		})
	}
	for i := range ranks {
		ranks[i] = 0.15/float64(len(ranks)) + 0.85*next[i]
	}
	return finish
}
