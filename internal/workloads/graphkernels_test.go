package workloads

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"affinityalloc/internal/graph"
	"affinityalloc/internal/sys"
)

var updateKernels = flag.Bool("update", false, "rewrite testdata/graph_kernels.golden")

const graphKernelsGolden = "testdata/graph_kernels.golden"

// graphKernelCase is one pinned graph-kernel configuration.
type graphKernelCase struct {
	label string
	w     Workload
	modes []sys.Mode
}

// graphKernelCases lists the traversal variants no figure runs as a
// whole: both PageRank directions, BFS switching/push-only/pull-only,
// SSSP, the Fig-9 ablations under Aff-Alloc, and the Fig-6 oracle on the
// CSR modes for each of the five push/pull traversals. After them come
// the pointer-chase kernels in every mode at small sizes: link_list with
// missing keys, bin_tree, and hash_join at the paper's 1/8 hit rate and
// at 0.25, a probe mix no figure runs.
func graphKernelCases() []graphKernelCase {
	g := graph.Kronecker(10, 8, 42)
	gt := g.Transpose()
	wg := graph.Kronecker(10, 8, 42)
	wg.AddUniformWeights(1, 255, 42)
	all := sys.Modes
	csr := []sys.Mode{sys.InCore, sys.NearL3}
	aff := []sys.Mode{sys.AffAlloc}
	prPush := func(o *EdgeOracle) Workload { return PageRank{G: g, GT: gt, Iters: 2, Dir: graph.Push, Oracle: o} }
	prPull := func(o *EdgeOracle) Workload { return PageRank{G: g, GT: gt, Iters: 2, Dir: graph.Pull, Oracle: o} }
	bfsPush := func(o *EdgeOracle) Workload { return BFS{G: g, GT: gt, Policy: graph.PushOnly{}, Src: -1, Oracle: o} }
	bfsPull := func(o *EdgeOracle) Workload { return BFS{G: g, GT: gt, Policy: graph.PullOnly{}, Src: -1, Oracle: o} }
	sssp := func(o *EdgeOracle) Workload { return SSSP{G: wg, Src: -1, Oracle: o} }

	cases := []graphKernelCase{
		{"pr_push", prPush(nil), all},
		{"pr_pull", prPull(nil), all},
		{"bfs", BFS{G: g, GT: gt, Src: -1}, all},
		{"bfs_push", bfsPush(nil), all},
		{"bfs_pull", bfsPull(nil), all},
		{"bfs_global_queue", BFS{G: g, GT: gt, Src: -1, ForceGlobalQueue: true}, aff},
		{"bfs_node128", BFS{G: g, GT: gt, Src: -1, LinkedNodeBytes: 128}, aff},
		{"sssp", sssp(nil), all},
	}
	for _, chunk := range []int{0, 256} {
		o := &EdgeOracle{ChunkBytes: chunk}
		sfx := fmt.Sprintf("_oracle%d", chunk)
		cases = append(cases,
			graphKernelCase{"pr_push" + sfx, prPush(o), csr},
			graphKernelCase{"pr_pull" + sfx, prPull(o), csr},
			graphKernelCase{"bfs_push" + sfx, bfsPush(o), csr},
			graphKernelCase{"bfs_pull" + sfx, bfsPull(o), csr},
			graphKernelCase{"sssp" + sfx, sssp(o), csr},
		)
	}
	return append(cases,
		graphKernelCase{"link_list", LinkList{Lists: 32, Nodes: 48, Queries: 2, MissRate: 0.125}, all},
		graphKernelCase{"bin_tree", BinTree{Keys: 1 << 10, Lookups: 2 << 10}, all},
		graphKernelCase{"hash_join", HashJoin{BuildRows: 1 << 10, ProbeRows: 2 << 10, Buckets: 1 << 8, HitRate: 1.0 / 8}, all},
		graphKernelCase{"hash_join_hit0.25", HashJoin{BuildRows: 1 << 10, ProbeRows: 2 << 10, Buckets: 1 << 8, HitRate: 0.25}, all},
	)
}

// TestGraphKernelTable pins cycles, total flit-hops, L3 accesses and the
// checksum of every graph-kernel variant on a scale-10 Kronecker graph,
// and of every pointer-chase kernel on its small structure. Any change to
// a traversal's timing or traffic shows up as a diff. To bless an
// intentional change:
//
//	go test ./internal/workloads -run TestGraphKernelTable -update
func TestGraphKernelTable(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%-18s %-9s %10s %10s %10s %16s\n", "kernel", "mode", "cycles", "flit_hops", "l3_access", "checksum")
	for _, c := range graphKernelCases() {
		for _, mode := range c.modes {
			res, err := Run(sys.DefaultConfig(), c.w, mode)
			if err != nil {
				t.Fatalf("%s %v: %v", c.label, mode, err)
			}
			m := res.Metrics
			fmt.Fprintf(&buf, "%-18s %-9v %10d %10d %10d %016x\n", c.label, mode, uint64(m.Cycles), m.FlitHops, m.L3Accesses, res.Checksum)
		}
	}
	got := buf.Bytes()
	if *updateKernels {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(graphKernelsGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(graphKernelsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("graph-kernel table diverged from %s; if the change is intentional, re-bless with -update.\n--- got\n%s--- want\n%s", graphKernelsGolden, got, want)
	}
}
