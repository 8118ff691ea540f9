package dstruct

import (
	"math/rand"
	"sort"
	"testing"

	"affinityalloc/internal/core"
	"affinityalloc/internal/graph"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/topo"
)

func newAlloc(t *testing.T, affinity bool, pcfg core.PolicyConfig) Alloc {
	t.Helper()
	space := memsim.MustSpace(memsim.DefaultConfig())
	mesh := topo.MustMesh(8, 8, topo.RowMajor)
	rt := core.MustNew(space, mesh, pcfg, 3)
	return Alloc{RT: rt, Affinity: affinity}
}

func TestListAppendWalk(t *testing.T) {
	for _, aff := range []bool{false, true} {
		l := NewList(newAlloc(t, aff, core.DefaultPolicy()))
		for i := uint64(0); i < 100; i++ {
			if _, err := l.Append(i * 3); err != nil {
				t.Fatal(err)
			}
		}
		if l.Len() != 100 {
			t.Fatalf("len %d", l.Len())
		}
		// Walk head to tail the way the link_list workload chases it.
		want := uint64(0)
		for addr := l.Head(); addr != 0; addr = l.Next(addr) {
			if key := l.Key(addr); key != want*3 {
				t.Fatalf("key %d, want %d", key, want*3)
			}
			want++
		}
		if want != 100 {
			t.Fatalf("walked %d nodes", want)
		}
	}
}

func TestListAffinityColocatesWithMinHop(t *testing.T) {
	a := newAlloc(t, true, core.PolicyConfig{Policy: core.MinHop})
	l := NewList(a)
	var addrs []memsim.Addr
	for i := uint64(0); i < 64; i++ {
		addr, err := l.Append(i)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	b0 := a.RT.BankOf(addrs[0])
	for i, addr := range addrs {
		if a.RT.BankOf(addr) != b0 {
			t.Fatalf("node %d on bank %d, want %d", i, a.RT.BankOf(addr), b0)
		}
	}
}

func TestBSTInsertSearch(t *testing.T) {
	for _, aff := range []bool{false, true} {
		tr := NewBST(newAlloc(t, aff, core.DefaultPolicy()))
		rng := rand.New(rand.NewSource(5))
		keys := make([]uint64, 0, 500)
		seen := map[uint64]bool{}
		for len(keys) < 500 {
			k := rng.Uint64() % 100000
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		for _, k := range keys {
			if err := tr.Insert(k); err != nil {
				t.Fatal(err)
			}
		}
		if tr.Len() != 500 {
			t.Fatalf("len %d", tr.Len())
		}
		// Duplicate insert is a no-op.
		if err := tr.Insert(keys[0]); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != 500 {
			t.Fatal("duplicate insert changed size")
		}
		var path []memsim.Addr
		for _, k := range keys {
			path, found := tr.SearchPath(k, path[:0])
			if !found {
				t.Fatalf("key %d not found", k)
			}
			if len(path) == 0 {
				t.Fatal("empty search path")
			}
		}
		if _, found := tr.SearchPath(1<<63, nil); found {
			t.Fatal("found a key that was never inserted")
		}
	}
}

func TestBSTInorderSorted(t *testing.T) {
	tr := NewBST(newAlloc(t, true, core.DefaultPolicy()))
	rng := rand.New(rand.NewSource(9))
	var keys []uint64
	for i := 0; i < 300; i++ {
		k := rng.Uint64()
		keys = append(keys, k)
		if err := tr.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	var inorder []uint64
	var walk func(addr memsim.Addr)
	walk = func(addr memsim.Addr) {
		if addr == 0 {
			return
		}
		k, l, r := tr.Node(addr)
		walk(l)
		inorder = append(inorder, k)
		walk(r)
	}
	walk(tr.Root())
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(inorder) != len(keys) {
		t.Fatalf("inorder %d nodes, want %d", len(inorder), len(keys))
	}
	for i := range keys {
		if inorder[i] != keys[i] {
			t.Fatalf("inorder[%d] = %d, want %d", i, inorder[i], keys[i])
		}
	}
}

func TestHashTableInsertProbe(t *testing.T) {
	for _, aff := range []bool{false, true} {
		a := newAlloc(t, aff, core.DefaultPolicy())
		h, err := NewHashTable(a, 1024)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 2000; k++ {
			if err := h.Insert(k, k*7); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(0); k < 2000; k++ {
			_, _, v, ok := h.ProbePath(k, nil)
			if !ok || v != k*7 {
				t.Fatalf("probe %d: ok=%v v=%d", k, ok, v)
			}
		}
		if _, _, _, ok := h.ProbePath(1<<40, nil); ok {
			t.Fatal("found uninserted key")
		}
	}
}

func TestHashBucketsSpreadBanks(t *testing.T) {
	a := newAlloc(t, true, core.DefaultPolicy())
	h, err := NewHashTable(a, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	banks := map[int]bool{}
	for i := int64(0); i < h.Buckets(); i += 64 {
		banks[a.RT.BankOf(h.BucketAddr(i))] = true
	}
	if len(banks) < 32 {
		t.Errorf("buckets on only %d banks", len(banks))
	}
}

func TestGlobalQueue(t *testing.T) {
	a := newAlloc(t, false, core.DefaultPolicy())
	q, err := NewGlobalQueue(a.RT, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 1000; i++ {
		if _, _, err := q.Push(i * 2); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 1000 {
		t.Fatalf("len %d", q.Len())
	}
	if _, _, err := q.Push(0); err == nil {
		t.Fatal("overflow push succeeded")
	}
	for i := int64(0); i < 1000; i++ {
		if q.Get(i) != int32(i*2) {
			t.Fatalf("slot %d = %d", i, q.Get(i))
		}
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("reset did not empty the queue")
	}
}

func TestSpatialQueuePushLocality(t *testing.T) {
	a := newAlloc(t, true, core.DefaultPolicy())
	// Partitioned vertex array of 64k int32.
	v, err := a.RT.AllocAffine(core.AffineSpec{ElemSize: 4, NumElem: 1 << 16, Partition: true})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewSpatialQueue(a.RT, v, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	pushed := make(map[int32]bool)
	localTail, localSlot := 0, 0
	total := 2000
	for i := 0; i < total; i++ {
		val := int32(rng.Intn(1 << 16))
		tailAddr, slotAddr, err := q.Push(val)
		if err != nil {
			t.Fatal(err)
		}
		pushed[val] = true
		// The Fig 9 property: tail and slot colocate with the vertex.
		vb := a.RT.BankOf(v.ElemAddr(int64(val)))
		if a.RT.BankOf(tailAddr) == vb {
			localTail++
		}
		if a.RT.BankOf(slotAddr) == vb {
			localSlot++
		}
	}
	if localTail < total*9/10 {
		t.Errorf("only %d/%d pushes had a local tail", localTail, total)
	}
	if localSlot < total*9/10 {
		t.Errorf("only %d/%d pushes had a local slot", localSlot, total)
	}
	// Contents round-trip.
	if q.Len() != int64(total) {
		t.Fatalf("Len %d, want %d", q.Len(), total)
	}
	got := make(map[int32]bool)
	lens := q.Lens()
	for p := int64(0); p < q.Parts(); p++ {
		for i := int64(0); i < lens[p]; i++ {
			val := q.Get(p, i)
			got[val] = true
			if q.PartOf(val) != p {
				t.Fatalf("value %d in partition %d, want %d", val, p, q.PartOf(val))
			}
		}
	}
	for v := range pushed {
		if !got[v] {
			t.Fatalf("pushed value %d missing", v)
		}
	}
}

func TestSpatialQueueMismatchedPartitions(t *testing.T) {
	a := newAlloc(t, true, core.DefaultPolicy())
	v, err := a.RT.AllocAffine(core.AffineSpec{ElemSize: 4, NumElem: 10000, Partition: true})
	if err != nil {
		t.Fatal(err)
	}
	// P != B is supported (§4.2).
	q, err := NewSpatialQueue(a.RT, v, 48, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 10000; i += 7 {
		if _, _, err := q.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != int64((10000+6)/7) {
		t.Fatalf("Len %d", q.Len())
	}
}

func TestLinkedCSRRoundTrip(t *testing.T) {
	g := graph.Kronecker(9, 8, 21)
	for _, aff := range []bool{false, true} {
		a := newAlloc(t, aff, core.DefaultPolicy())
		prop, err := a.RT.AllocAffine(core.AffineSpec{ElemSize: 4, NumElem: int64(g.N), Partition: true})
		if err != nil {
			t.Fatal(err)
		}
		lc, err := BuildLinkedCSR(a, g, prop)
		if err != nil {
			t.Fatal(err)
		}
		if err := lc.VerifyAgainst(a.Space()); err != nil {
			t.Fatal(err)
		}
		// Node count matches ceil(deg/14) summed.
		var want int64
		for u := int32(0); u < g.N; u++ {
			want += (g.Degree(u) + EdgesPerNode - 1) / EdgesPerNode
		}
		if lc.NumNodes() != want {
			t.Errorf("node count %d, want %d", lc.NumNodes(), want)
		}
	}
}

func TestLinkedCSRWeighted(t *testing.T) {
	g := graph.Kronecker(8, 6, 23)
	g.AddUniformWeights(1, 255, 23)
	a := newAlloc(t, true, core.DefaultPolicy())
	prop, err := a.RT.AllocAffine(core.AffineSpec{ElemSize: 8, NumElem: int64(g.N), Partition: true})
	if err != nil {
		t.Fatal(err)
	}
	lc, err := BuildLinkedCSR(a, g, prop)
	if err != nil {
		t.Fatal(err)
	}
	if !lc.Weighted() {
		t.Fatal("weighted graph built unweighted")
	}
	if err := lc.VerifyAgainst(a.Space()); err != nil {
		t.Fatal(err)
	}
	// Weights readable from memory: check one chain.
	u := g.MaxDegreeVertex()
	if len(lc.Chains[u]) > 0 {
		node := lc.Chains[u][0]
		w := int32(a.Space().ReadU32(node.Addr + 8 + 4))
		if w != node.Weights[0] {
			t.Errorf("weight in memory %d, mirror %d", w, node.Weights[0])
		}
	}
}

func TestLinkedCSRAffinityReducesDistance(t *testing.T) {
	g := graph.Kronecker(10, 10, 25)
	measure := func(aff bool) float64 {
		a := newAlloc(t, aff, core.PolicyConfig{Policy: core.Hybrid, H: 5})
		prop, err := a.RT.AllocAffine(core.AffineSpec{ElemSize: 4, NumElem: int64(g.N), Partition: true})
		if err != nil {
			t.Fatal(err)
		}
		if !aff {
			// Mimic Near-L3: property array from the baseline allocator.
			base, err := a.RT.AllocBase(4 * int64(g.N))
			if err != nil {
				t.Fatal(err)
			}
			prop = &core.ArrayInfo{Base: base, ElemSize: 4, ElemStride: 4, NumElem: int64(g.N)}
		}
		lc, err := BuildLinkedCSR(a, g, prop)
		if err != nil {
			t.Fatal(err)
		}
		mesh := a.RT.Mesh()
		totHops, totEdges := 0, 0
		for u := int32(0); u < g.N; u++ {
			for _, node := range lc.Chains[u] {
				nb := a.RT.BankOf(node.Addr)
				for _, v := range node.Edges {
					totHops += mesh.Hops(nb, a.RT.BankOf(prop.ElemAddr(int64(v))))
					totEdges++
				}
			}
		}
		return float64(totHops) / float64(totEdges)
	}
	base := measure(false)
	opt := measure(true)
	if opt >= base*0.6 {
		t.Errorf("affinity layout avg indirect distance %.2f vs baseline %.2f — want >40%% reduction", opt, base)
	}
}
