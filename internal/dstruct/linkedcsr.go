package dstruct

import (
	"fmt"

	"affinityalloc/internal/core"
	"affinityalloc/internal/graph"
	"affinityalloc/internal/memsim"
)

// Linked CSR (Fig 11) stores each vertex's out-edges in a chain of
// line-sized nodes instead of one contiguous array, giving the allocator
// the freedom to place each node near the vertices its edges point to.
// A 64B node holds an 8B next pointer and up to 14 4-byte edge targets
// (short nodes are padded with -1), exactly the layout §5.3 describes.
const (
	// CSRNodeBytes is one edge node's footprint (a cache line).
	CSRNodeBytes = 64
	// EdgesPerNode is the edge capacity of one node.
	EdgesPerNode = 14
)

// CSRNode is the Go-side mirror of one simulated edge node.
type CSRNode struct {
	Addr    memsim.Addr
	Edges   []int32 // targets (shared with the builder until mutated)
	Weights []int32 // parallel weights, nil when unweighted
	// owned marks nodes whose slices were copied out of the builder's
	// shared storage (set by the dynamic-update path before mutating).
	owned bool
}

// LinkedCSR is a built linked-CSR graph plus its Go-side traversal
// mirror.
type LinkedCSR struct {
	G *graph.Graph
	// Chains[u] lists vertex u's edge nodes in order.
	Chains [][]CSRNode
	// Heads[u] is the first node's address (0 for isolated vertices).
	Heads     []memsim.Addr
	weighted  bool
	nodeBytes int
}

// BuildLinkedCSR converts g into linked-CSR form, allocating each node
// with affinity to the property-array entries of the vertices its edges
// point to (prop is the array indirect accesses target, e.g. parents or
// ranks). Affinity addresses are sampled down to the API's cap. The cost
// matches §5.3: one O(|E|) scan.
func BuildLinkedCSR(alloc Alloc, g *graph.Graph, prop *core.ArrayInfo) (*LinkedCSR, error) {
	return BuildLinkedCSRSized(alloc, g, prop, CSRNodeBytes)
}

// BuildLinkedCSRSized is BuildLinkedCSR with an explicit node size — the
// design-space knob DESIGN.md's ablation studies sweep (64B..256B nodes
// trade pointer-chasing amortization against placement granularity).
func BuildLinkedCSRSized(alloc Alloc, g *graph.Graph, prop *core.ArrayInfo, nodeBytes int) (*LinkedCSR, error) {
	if nodeBytes < 16 || nodeBytes&(nodeBytes-1) != 0 {
		return nil, fmt.Errorf("dstruct: invalid linked-CSR node size %d", nodeBytes)
	}
	weighted := g.Weights != nil
	cap := (nodeBytes - 8) / 4
	if weighted {
		cap = (nodeBytes - 8) / 8
	}
	lc := &LinkedCSR{
		G:         g,
		Chains:    make([][]CSRNode, g.N),
		Heads:     make([]memsim.Addr, g.N),
		weighted:  weighted,
		nodeBytes: nodeBytes,
	}
	sp := alloc.Space()
	hints := make([]memsim.Addr, 0, core.MaxAffinityAddrs)
	for u := int32(0); u < g.N; u++ {
		lo, hi := g.Index[u], g.Index[u+1]
		var prevAddr memsim.Addr
		for at := lo; at < hi; at += int64(cap) {
			end := at + int64(cap)
			if end > hi {
				end = hi
			}
			edges := g.Edges[at:end]
			var weights []int32
			if weighted {
				weights = g.Weights[at:end]
			}

			// Sample up to MaxAffinityAddrs pointed-to property slots.
			hints = hints[:0]
			if alloc.Affinity && prop != nil {
				step := (len(edges) + core.MaxAffinityAddrs - 1) / core.MaxAffinityAddrs
				if step < 1 {
					step = 1
				}
				for i := 0; i < len(edges); i += step {
					hints = append(hints, prop.ElemAddr(int64(edges[i])))
				}
			}
			addr, err := alloc.Near(int64(nodeBytes), hints)
			if err != nil {
				return nil, fmt.Errorf("dstruct: linked CSR node for vertex %d: %w", u, err)
			}

			// Materialize the node in simulated memory: next pointer,
			// then edge words (target, or target+weight pairs).
			sp.WriteAddr(addr, 0)
			off := addr + 8
			for i, v := range edges {
				sp.WriteU32(off, uint32(v))
				off += 4
				if weighted {
					sp.WriteU32(off, uint32(weights[i]))
					off += 4
				}
				_ = i
			}
			for off < addr+memsim.Addr(nodeBytes) {
				sp.WriteU32(off, ^uint32(0)) // -1 padding
				off += 4
			}

			if prevAddr != 0 {
				sp.WriteAddr(prevAddr, addr)
			} else {
				lc.Heads[u] = addr
			}
			prevAddr = addr
			lc.Chains[u] = append(lc.Chains[u], CSRNode{Addr: addr, Edges: edges, Weights: weights})
		}
	}
	return lc, nil
}

// Weighted reports whether nodes carry edge weights.
func (lc *LinkedCSR) Weighted() bool { return lc.weighted }

// NodeBytes returns the per-node footprint.
func (lc *LinkedCSR) NodeBytes() int {
	if lc.nodeBytes == 0 {
		return CSRNodeBytes
	}
	return lc.nodeBytes
}

// NumNodes returns the total edge-node count.
func (lc *LinkedCSR) NumNodes() int64 {
	var n int64
	for _, c := range lc.Chains {
		n += int64(len(c))
	}
	return n
}

// VerifyAgainst checks the simulated-memory contents reproduce g's edge
// lists exactly (used by tests).
func (lc *LinkedCSR) VerifyAgainst(sp *memsim.Space) error {
	cap := (lc.NodeBytes() - 8) / 4
	stride := memsim.Addr(4)
	if lc.weighted {
		cap = (lc.NodeBytes() - 8) / 8
		stride = 8
	}
	for u := int32(0); u < lc.G.N; u++ {
		want := lc.G.OutEdges(u)
		got := make([]int32, 0, len(want))
		addr := lc.Heads[u]
		for addr != 0 {
			off := addr + 8
			for i := 0; i < cap; i++ {
				v := int32(sp.ReadU32(off))
				if v == -1 {
					break
				}
				got = append(got, v)
				off += stride
			}
			addr = sp.ReadAddr(addr)
		}
		if len(got) != len(want) {
			return fmt.Errorf("dstruct: vertex %d has %d edges in memory, want %d", u, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("dstruct: vertex %d edge %d is %d, want %d", u, i, got[i], want[i])
			}
		}
	}
	return nil
}
