package harness

import (
	"affinityalloc/internal/graph"
	"affinityalloc/internal/workloads"
)

// affineWorkloads returns the four Rodinia affine workloads at the given
// scale, with an input-size multiplier (Fig 15 sweeps it; 1 otherwise).
func affineWorkloads(opt Options, mult int64) []workloads.Workload {
	switch opt.Scale {
	case Tiny:
		return []workloads.Workload{
			workloads.Pathfinder{Cols: 32 * 1024 * mult, Steps: 2},
			workloads.NewHotspot(64*mult, 1024, 2),
			workloads.NewSrad(32*mult, 1024, 1),
			workloads.Hotspot3D{Rows: 32 * mult, Cols: 256, Layers: 8, Iters: 2},
		}
	case Paper:
		return []workloads.Workload{
			workloads.Pathfinder{Cols: 1536 * 1024 * mult, Steps: 8},
			workloads.NewHotspot(2048*mult, 1024, 8),
			workloads.NewSrad(1024*mult, 2048, 8),
			workloads.Hotspot3D{Rows: 256 * mult, Cols: 1024, Layers: 8, Iters: 8},
		}
	default:
		return []workloads.Workload{
			workloads.Pathfinder{Cols: 192 * 1024 * mult, Steps: 4},
			workloads.NewHotspot(512*mult, 1024, 4),
			workloads.NewSrad(256*mult, 1024, 4),
			workloads.Hotspot3D{Rows: 128 * mult, Cols: 512, Layers: 8, Iters: 4},
		}
	}
}

// pointerWorkloads returns the three pointer-chasing workloads.
func pointerWorkloads(opt Options) []workloads.Workload {
	switch opt.Scale {
	case Tiny:
		return []workloads.Workload{
			workloads.LinkList{Lists: 120, Nodes: 128, Queries: 1},
			workloads.HashJoin{BuildRows: 8 << 10, ProbeRows: 16 << 10, Buckets: 2 << 10, HitRate: 1.0 / 8},
			workloads.BinTree{Keys: 8 << 10, Lookups: 16 << 10},
		}
	case Paper:
		return []workloads.Workload{
			workloads.PaperLinkList(),
			workloads.PaperHashJoin(),
			workloads.PaperBinTree(),
		}
	default:
		return []workloads.Workload{
			workloads.DefaultLinkList(),
			workloads.DefaultHashJoin(),
			workloads.DefaultBinTree(),
		}
	}
}

// prIters returns the PageRank iteration count per scale.
func prIters(opt Options) int {
	switch opt.Scale {
	case Tiny:
		return 2
	case Paper:
		return 8
	default:
		return 3
	}
}

// graphWorkloads returns the evaluation's graph workloads on the shared
// Kronecker graph: pr (best per mode), bfs (switching), sssp.
func graphWorkloads(opt Options) []workloads.Workload {
	g, gt := sharedGraph(opt)
	wg := weighted(g, 42+opt.Seed)
	return []workloads.Workload{
		workloads.PageRank{G: g, GT: gt, Iters: prIters(opt), Best: true},
		workloads.BFS{G: g, GT: gt, Src: -1},
		workloads.SSSP{G: wg, Src: -1},
	}
}

// irregularWorkloads returns the Fig-13 policy-sensitivity set.
func irregularWorkloads(opt Options) []workloads.Workload {
	g, gt := sharedGraph(opt)
	wg := weighted(g, 42+opt.Seed)
	ws := []workloads.Workload{
		workloads.PageRank{G: g, GT: gt, Iters: prIters(opt), Dir: graph.Push},
		workloads.PageRank{G: g, GT: gt, Iters: prIters(opt), Dir: graph.Pull},
		workloads.BFS{G: g, GT: gt, Src: -1},
		workloads.SSSP{G: wg, Src: -1},
	}
	return append(ws, pointerWorkloads(opt)...)
}

// AllWorkloads returns Fig 12's ten benchmarks at the given scale.
func AllWorkloads(opt Options) []workloads.Workload {
	ws := affineWorkloads(opt, 1)
	ws = append(ws, graphWorkloads(opt)...)
	ws = append(ws, pointerWorkloads(opt)...)
	return ws
}
