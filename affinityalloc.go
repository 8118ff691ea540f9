// Package affinityalloc is a from-scratch reproduction of "Affinity
// Alloc: Taming Not-So Near-Data Computing" (MICRO 2023): an
// affinity-aware memory allocator for near-data computing, together with
// the full simulated substrate it needs — a tiled multicore with a banked
// NUCA last-level cache, a mesh NoC, near-stream computing engines, an
// interleave-pool OS layer, and the co-designed data structures (spatially
// distributed queues, Linked CSR).
//
// # Quick start
//
//	s, err := affinityalloc.New(affinityalloc.DefaultConfig())
//	if err != nil {
//		log.Fatal(err)
//	}
//	a, _ := s.RT.AllocAffine(affinityalloc.AffineSpec{ElemSize: 4, NumElem: 1 << 20})
//	b, _ := s.RT.AllocAffine(affinityalloc.AffineSpec{ElemSize: 4, NumElem: 1 << 20, AlignTo: a.Base})
//	// a[i] and b[i] now share an L3 bank for every i.
//
// New is the canonical constructor: it validates the configuration and
// returns an error.
//
// The same allocator is also servable as a long-running daemon speaking
// a versioned HTTP/JSON API (affinityd/v1); see cmd/affinityd and
// cmd/affload.
//
// Workloads (the paper's Table-3 benchmarks) run under three
// configurations: InCore (conventional OOO cores), NearL3 (near-stream
// computing with an affinity-oblivious layout), and AffAlloc (near-stream
// computing plus affinity allocation and co-designed data structures).
// The harness regenerates every figure and table of the paper's
// evaluation; see EXPERIMENTS.md.
package affinityalloc

import (
	"affinityalloc/internal/core"
	"affinityalloc/internal/graph"
	"affinityalloc/internal/harness"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/workloads"
)

// Core simulated-system types.
type (
	// Config parameterizes a simulated system (Table 2 defaults).
	Config = sys.Config
	// System is one assembled machine: mesh, memory, NoC, cores, stream
	// engines, and the affinity allocator runtime (field RT).
	System = sys.System
	// Mode selects the execution configuration.
	Mode = sys.Mode
	// Metrics is what one run reports.
	Metrics = sys.Metrics
)

// Allocator API types (the paper's contribution).
type (
	// AffineSpec mirrors the paper's AffineArray struct (Fig 8).
	AffineSpec = core.AffineSpec
	// ArrayInfo records the layout chosen for an affine array.
	ArrayInfo = core.ArrayInfo
	// Policy is an irregular bank-selection policy (§5.2).
	Policy = core.Policy
	// PolicyConfig is a policy plus its load-balance weight H (Eq. 4).
	PolicyConfig = core.PolicyConfig
	// Addr is a simulated virtual address.
	Addr = memsim.Addr
)

// Workload types.
type (
	// Workload is one Table-3 benchmark with fixed parameters.
	Workload = workloads.Workload
	// Result is one run's outcome.
	Result = workloads.Result
	// Graph is a CSR directed graph.
	Graph = graph.Graph
)

// Execution configurations.
const (
	// InCore runs on the OOO cores; nothing is offloaded.
	InCore = sys.InCore
	// NearL3 offloads streams but is oblivious to data affinity.
	NearL3 = sys.NearL3
	// AffAlloc adds affinity allocation and co-designed structures.
	AffAlloc = sys.AffAlloc
)

// Bank-selection policies (§5.2 / Fig 13).
const (
	// Rnd picks a uniformly random bank.
	Rnd = core.Rnd
	// Lnr picks banks round-robin.
	Lnr = core.Lnr
	// MinHop picks the bank nearest the affinity addresses.
	MinHop = core.MinHop
	// Hybrid trades affinity against load balance (Eq. 4).
	Hybrid = core.Hybrid
)

// Modes lists the three configurations in presentation order.
var Modes = sys.Modes

// DefaultConfig returns the Table-2 system: an 8x8 mesh, 64 L3 banks of
// 1MB, 4 DRAM channels at the corners, and the Hybrid-5 policy.
func DefaultConfig() Config { return sys.DefaultConfig() }

// DefaultPolicy returns the paper's default bank-selection policy,
// Hybrid-5.
func DefaultPolicy() PolicyConfig { return core.DefaultPolicy() }

// New builds a simulated system. The configuration is validated first
// (see Config.Validate), so a bad geometry or policy comes back as an
// actionable error instead of a panic deep in assembly.
func New(cfg Config) (*System, error) { return sys.New(cfg) }

// RunWorkload builds a fresh system from cfg and runs w under mode.
func RunWorkload(cfg Config, w Workload, mode Mode) (Result, error) {
	return workloads.Run(cfg, w, mode)
}

// Kronecker generates an R-MAT graph with 2^scale vertices and about
// avgDeg edges per vertex (Table 3's generator).
func Kronecker(scale, avgDeg int, seed int64) *Graph {
	return graph.Kronecker(scale, avgDeg, seed)
}

// PowerLaw generates a power-law graph with n vertices and n*avgDeg
// distinct edges (the Fig-19 generator).
func PowerLaw(n int32, avgDeg int, seed int64) *Graph {
	return graph.PowerLaw(n, avgDeg, seed)
}

// Experiment is one regenerable table or figure from the paper.
type Experiment = harness.Experiment

// Experiments lists every regenerable artifact in paper order.
func Experiments() []Experiment { return harness.Experiments() }

// VecAddWorkload builds the vector-add microbenchmark (Fig 4) over n
// float32 elements.
func VecAddWorkload(n int64) Workload {
	return workloads.VecAdd{N: n, ForceDelta: -1}
}

// BFSWorkload builds the direction-switching BFS benchmark over g (gt is
// its transpose; source is the highest-degree vertex).
func BFSWorkload(g, gt *Graph) Workload {
	return workloads.BFS{G: g, GT: gt, Src: -1}
}

// PageRankWorkload builds the PageRank benchmark with the paper's
// per-configuration direction choice.
func PageRankWorkload(g, gt *Graph, iters int) Workload {
	return workloads.PageRank{G: g, GT: gt, Iters: iters, Best: true}
}

// SSSPWorkload builds the shortest-paths benchmark; g must carry edge
// weights (Graph.AddUniformWeights).
func SSSPWorkload(g *Graph) Workload {
	return workloads.SSSP{G: g, Src: -1}
}

// LinkListWorkload builds the linked-list search benchmark.
func LinkListWorkload(lists, nodesPerList int) Workload {
	return workloads.LinkList{Lists: lists, Nodes: nodesPerList, Queries: 1}
}

// HashJoinWorkload builds the hash-join benchmark.
func HashJoinWorkload(buildRows, probeRows, buckets int64) Workload {
	return workloads.HashJoin{BuildRows: buildRows, ProbeRows: probeRows, Buckets: buckets, HitRate: 1.0 / 8}
}

// BinTreeWorkload builds the binary-search-tree benchmark.
func BinTreeWorkload(keys, lookups int) Workload {
	return workloads.BinTree{Keys: keys, Lookups: lookups}
}

// HotspotWorkload builds the 2D-stencil benchmark.
func HotspotWorkload(rows, cols int64, iters int) Workload {
	return workloads.NewHotspot(rows, cols, iters)
}
