package workloads

import (
	"sort"

	"affinityalloc/internal/core"
	"affinityalloc/internal/dstruct"
	"affinityalloc/internal/graph"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/sys"
)

// graphData is a graph materialized in simulated memory for one mode:
//
//   - In-Core / Near-L3: the original CSR (index + edge arrays) from the
//     baseline allocator, a global work queue, and property arrays laid
//     out obliviously;
//   - Aff-Alloc: a partitioned property array, the Linked CSR co-designed
//     format with each edge node allocated near the properties its edges
//     target (§5.3), per-vertex head pointers aligned to the partition,
//     and the spatially distributed queue (Fig 9).
type graphData struct {
	// prop is the indirect-access target (levels, distances, ranks).
	prop *core.ArrayInfo
	// prop2 is a second elementwise property (e.g. PageRank sums).
	prop2 *core.ArrayInfo

	// out holds g's out-edges; in holds the transpose's, which are g's
	// in-edges (built only for pull traversals).
	out, in        edgeDir
	weightsPerEdge int // bytes per CSR edge for traffic accounting

	// Work queues.
	gq *dstruct.GlobalQueue
	sq *dstruct.SpatialQueue

	// idealInd eliminates indirect-request traffic entirely (Fig 6's
	// "Ind-Ideal"): every indirect operation issues from its target's
	// own bank.
	idealInd bool
}

// edgeDir is one direction of the graph in simulated memory: the CSR
// under In-Core / Near-L3, the linked CSR under Aff-Alloc.
type edgeDir struct {
	g *graph.Graph
	// head is the per-vertex array read before a vertex's edges: the CSR
	// index, or the linked-CSR chain heads.
	head *core.ArrayInfo

	// CSR edge array. edgeSlot, when set, overrides the edge-slot
	// address mapping — the Fig-6 chunked-placement study's hook.
	edges    *core.ArrayInfo
	edgeSlot func(i int64) memsim.Addr

	lcsr *dstruct.LinkedCSR
}

// edgeAddr returns the simulated address of CSR edge slot i (including
// its weight bytes).
func (d *edgeDir) edgeAddr(i int64) memsim.Addr {
	if d.edgeSlot != nil {
		return d.edgeSlot(i)
	}
	return d.edges.ElemAddr(i)
}

// EdgeOracle configures the Fig-6 idealized chunked-CSR placement study:
// the edge array is broken into ChunkBytes chunks, each placed on the L3
// bank minimizing its indirect traffic subject to a 2% load-imbalance
// cap. ChunkBytes == 0 requests the "Ind-Ideal" upper bound, where
// indirect operations cost no request traffic at all.
type EdgeOracle struct {
	ChunkBytes int
}

// graphSetup describes what a graph workload needs materialized.
type graphSetup struct {
	needPull  bool // transpose structures
	needQueue bool // frontier queue
	propElem  int  // property element size in bytes
	prop2Elem int  // second property's element size; 0 allocates none
	oracle    *EdgeOracle
	// oracleTargetProp2 points the oracle's placement at prop2 (the
	// array push-PageRank's indirect ops actually target).
	oracleTargetProp2 bool
	// nodeBytes overrides the linked-CSR node size (ablation; 0 = 64B).
	nodeBytes int
}

func buildGraphData(s *sys.System, mode sys.Mode, g, gt *graph.Graph, setup graphSetup) (*graphData, error) {
	gd := &graphData{out: edgeDir{g: g}, in: edgeDir{g: gt}}
	n := int64(g.N)

	// Property arrays: partitioned under Aff-Alloc so partition p lives
	// on bank p (Fig 9), oblivious otherwise.
	var err error
	if gd.prop, err = s.Alloc(mode, core.AffineSpec{ElemSize: setup.propElem, NumElem: n, Partition: true}); err != nil {
		return nil, err
	}
	s.PreloadArray(gd.prop)
	if setup.prop2Elem > 0 {
		spec := core.AffineSpec{ElemSize: setup.prop2Elem, NumElem: n}
		if mode == sys.AffAlloc {
			spec.AlignTo = gd.prop.Base
		}
		if gd.prop2, err = s.Alloc(mode, spec); err != nil {
			return nil, err
		}
		s.PreloadArray(gd.prop2)
	}

	dirs := []*edgeDir{&gd.out}
	if setup.needPull {
		dirs = append(dirs, &gd.in)
	}
	if mode == sys.AffAlloc {
		nodeBytes := setup.nodeBytes
		if nodeBytes == 0 {
			nodeBytes = dstruct.CSRNodeBytes
		}
		alloc := dstruct.Alloc{RT: s.RT, Affinity: true}
		for _, d := range dirs {
			if d.lcsr, err = dstruct.BuildLinkedCSRSized(alloc, d.g, gd.prop, nodeBytes); err != nil {
				return nil, err
			}
			preloadLinkedCSR(s, d.lcsr)
		}
		for _, d := range dirs {
			if d.head, err = s.RT.AllocAffine(core.AffineSpec{ElemSize: 8, NumElem: n, AlignTo: gd.prop.Base}); err != nil {
				return nil, err
			}
			s.PreloadArray(d.head)
		}
		if setup.needQueue {
			if gd.sq, err = dstruct.NewSpatialQueue(s.RT, gd.prop, int64(s.NumCores()), 1); err != nil {
				return nil, err
			}
			s.PreloadArray(gd.sq.Info())
			s.PreloadArray(gd.sq.TailsInfo())
		}
		return gd, nil
	}

	// Conventional CSR.
	gd.weightsPerEdge = 4
	if g.Weights != nil {
		gd.weightsPerEdge = 8
	}
	for _, d := range dirs {
		if d.head, err = s.Alloc(mode, core.AffineSpec{ElemSize: 8, NumElem: n + 1}); err != nil {
			return nil, err
		}
		if d.edges, err = s.Alloc(mode, core.AffineSpec{ElemSize: gd.weightsPerEdge, NumElem: d.g.NumEdges()}); err != nil {
			return nil, err
		}
		s.PreloadArray(d.head)
		s.PreloadArray(d.edges)
	}
	if setup.needQueue {
		if gd.gq, err = newGlobalQueue(s, n+1); err != nil {
			return nil, err
		}
	}
	if setup.oracle != nil && setup.oracle.ChunkBytes == 0 {
		gd.idealInd = true
	} else if setup.oracle != nil {
		for _, d := range dirs {
			// Out-edges of push-PageRank target prop2; every other
			// traversal's edges target prop.
			target := gd.prop
			if d == &gd.out && setup.oracleTargetProp2 {
				target = gd.prop2
			}
			if d.edgeSlot, err = placeChunkedEdges(s, d.g.Edges, target, setup.oracle.ChunkBytes, gd.weightsPerEdge); err != nil {
				return nil, err
			}
		}
	}
	return gd, nil
}

// newGlobalQueue allocates a global queue of capacity slots with its tail
// and slots resident in the cache hierarchy.
func newGlobalQueue(s *sys.System, capacity int64) (*dstruct.GlobalQueue, error) {
	q, err := dstruct.NewGlobalQueue(s.RT, capacity)
	if err != nil {
		return nil, err
	}
	s.Mem.Preload(q.TailAddr(), 8)
	s.Mem.Preload(q.SlotAddr(0), 4*capacity)
	return q, nil
}

// placeChunkedEdges implements the Fig-6 oracle: break the edge array
// into fixed-size chunks and place each on the bank minimizing the total
// hop distance to the property entries its edges target, subject to a 2%%
// load-imbalance cap (chunks with the least traffic reduction spill to
// the least occupied bank, as the paper's footnote describes).
func placeChunkedEdges(s *sys.System, edges []int32, prop *core.ArrayInfo, chunkBytes, perEdge int) (func(i int64) memsim.Addr, error) {
	epc := int64(chunkBytes / perEdge)
	if epc < 1 {
		epc = 1
	}
	nEdges := int64(len(edges))
	nChunks := (nEdges + epc - 1) / epc
	nb := s.Mesh.Banks()

	best := make([]int, nChunks)
	benefit := make([]float64, nChunks)
	load := make([]int64, nb)
	hist := make([]int64, nb)
	for j := int64(0); j < nChunks; j++ {
		for b := range hist {
			hist[b] = 0
		}
		lo, hi := j*epc, (j+1)*epc
		if hi > nEdges {
			hi = nEdges
		}
		for i := lo; i < hi; i++ {
			hist[s.Mem.BankOf(prop.ElemAddr(int64(edges[i])))]++
		}
		bestBank, bestCost, sumCost := 0, int64(1)<<62, int64(0)
		for b := 0; b < nb; b++ {
			var cost int64
			for tb, cnt := range hist {
				if cnt > 0 {
					cost += cnt * int64(s.Mesh.Hops(b, tb))
				}
			}
			sumCost += cost
			if cost < bestCost {
				bestBank, bestCost = b, cost
			}
		}
		best[j] = bestBank
		benefit[j] = float64(sumCost)/float64(nb) - float64(bestCost)
		load[bestBank]++
	}

	// Enforce the 2% imbalance cap by spilling least-beneficial chunks.
	cap64 := int64(float64(nChunks)/float64(nb)*1.02) + 1
	order := make([]int64, nChunks)
	for j := range order {
		order[j] = int64(j)
	}
	sort.Slice(order, func(a, b int) bool { return benefit[order[a]] < benefit[order[b]] })
	for _, j := range order {
		b := best[j]
		if load[b] <= cap64 {
			continue
		}
		min := 0
		for cand := 1; cand < nb; cand++ {
			if load[cand] < load[min] {
				min = cand
			}
		}
		load[b]--
		load[min]++
		best[j] = min
	}

	// Materialize the placement through the allocator's oracle API.
	bases := make([]memsim.Addr, nChunks)
	for j := int64(0); j < nChunks; j++ {
		addr, err := s.RT.AllocAtBank(int64(chunkBytes), best[j])
		if err != nil {
			return nil, err
		}
		bases[j] = addr
		s.Mem.Preload(addr, int64(chunkBytes))
	}
	return func(i int64) memsim.Addr {
		j := i / epc
		return bases[j] + memsim.Addr((i%epc)*int64(perEdge))
	}, nil
}

func preloadLinkedCSR(s *sys.System, lc *dstruct.LinkedCSR) {
	for _, chain := range lc.Chains {
		for _, node := range chain {
			s.Mem.Preload(node.Addr, int64(lc.NodeBytes()))
		}
	}
}
