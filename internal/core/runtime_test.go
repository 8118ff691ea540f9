package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"affinityalloc/internal/memsim"
	"affinityalloc/internal/topo"
)

func newRuntime(tb testing.TB, pcfg PolicyConfig) *Runtime {
	tb.Helper()
	space, err := memsim.NewSpace(memsim.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	mesh := topo.MustMesh(8, 8, topo.RowMajor)
	r, err := New(space, mesh, pcfg, 7)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func TestDefaultAffineUsesLineInterleave(t *testing.T) {
	r := newRuntime(t, DefaultPolicy())
	a, err := r.AllocAffine(AffineSpec{ElemSize: 4, NumElem: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if a.Interleave != memsim.LineSize {
		t.Errorf("interleave %d, want %d", a.Interleave, memsim.LineSize)
	}
	if a.StartBank != 0 {
		t.Errorf("start bank %d, want 0", a.StartBank)
	}
	// 16 floats per line: elements 0..15 on bank 0, 16..31 on bank 1.
	if b := r.BankOf(a.ElemAddr(15)); b != 0 {
		t.Errorf("elem 15 on bank %d, want 0", b)
	}
	if b := r.BankOf(a.ElemAddr(16)); b != 1 {
		t.Errorf("elem 16 on bank %d, want 1", b)
	}
}

func TestInterArrayAlignmentSameSize(t *testing.T) {
	r := newRuntime(t, DefaultPolicy())
	a, err := r.AllocAffine(AffineSpec{ElemSize: 4, NumElem: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.AllocAffine(AffineSpec{ElemSize: 4, NumElem: 1 << 16, AlignTo: a.Base})
	if err != nil {
		t.Fatal(err)
	}
	if b.Interleave != a.Interleave {
		t.Fatalf("interleave %d, want %d", b.Interleave, a.Interleave)
	}
	// The paper's goal: A[i] and B[i] colocated for every i.
	for _, i := range []int64{0, 1, 15, 16, 1000, 1 << 15, 1<<16 - 1} {
		if r.BankOf(a.ElemAddr(i)) != r.BankOf(b.ElemAddr(i)) {
			t.Fatalf("A[%d] on bank %d but B[%d] on bank %d", i, r.BankOf(a.ElemAddr(i)), i, r.BankOf(b.ElemAddr(i)))
		}
	}
}

func TestInterArrayAlignmentEq3ElementRatio(t *testing.T) {
	r := newRuntime(t, DefaultPolicy())
	// Fig 8(b): float A, double C => C gets 2x interleaving.
	a, err := r.AllocAffine(AffineSpec{ElemSize: 4, NumElem: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.AllocAffine(AffineSpec{ElemSize: 8, NumElem: 1 << 16, AlignTo: a.Base})
	if err != nil {
		t.Fatal(err)
	}
	if c.Interleave != 2*a.Interleave {
		t.Fatalf("C interleave %d, want %d", c.Interleave, 2*a.Interleave)
	}
	for _, i := range []int64{0, 7, 16, 999, 1 << 15} {
		if r.BankOf(a.ElemAddr(i)) != r.BankOf(c.ElemAddr(i)) {
			t.Fatalf("A[%d] and C[%d] on banks %d vs %d", i, i, r.BankOf(a.ElemAddr(i)), r.BankOf(c.ElemAddr(i)))
		}
	}
}

func TestInterArrayAlignmentOffsetX(t *testing.T) {
	r := newRuntime(t, DefaultPolicy())
	a, err := r.AllocAffine(AffineSpec{ElemSize: 4, NumElem: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	// B[i] aligns with A[i + 64]: start bank shifts by 64*4/64 = 4 banks.
	b, err := r.AllocAffine(AffineSpec{ElemSize: 4, NumElem: 1 << 10, AlignTo: a.Base, AlignX: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int64{0, 5, 100, 1023} {
		if r.BankOf(b.ElemAddr(i)) != r.BankOf(a.ElemAddr(i+64)) {
			t.Fatalf("B[%d] bank %d != A[%d] bank %d", i, r.BankOf(b.ElemAddr(i)), i+64, r.BankOf(a.ElemAddr(i+64)))
		}
	}
}

func TestInterArrayAlignmentRatioPQ(t *testing.T) {
	r := newRuntime(t, DefaultPolicy())
	a, err := r.AllocAffine(AffineSpec{ElemSize: 4, NumElem: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	// B[i] aligns to A[4i]: B needs 1/4 the span per element ratio —
	// Eq. 3 gives intrlvB = (4/4)*(1/4)*64 = 16 < 64, so the runtime
	// pads B's stride to 16B so that 64B interleave aligns exactly.
	b, err := r.AllocAffine(AffineSpec{ElemSize: 4, NumElem: 1 << 12, AlignTo: a.Base, AlignP: 4})
	if err != nil {
		t.Fatal(err)
	}
	if b.Interleave == 0 {
		t.Skip("runtime chose fallback for p=4 alignment")
	}
	for _, i := range []int64{0, 3, 64, 1000} {
		if r.BankOf(b.ElemAddr(i)) != r.BankOf(a.ElemAddr(4*i)) {
			t.Fatalf("B[%d] bank %d != A[%d] bank %d (stride=%d il=%d)",
				i, r.BankOf(b.ElemAddr(i)), 4*i, r.BankOf(a.ElemAddr(4*i)), b.ElemStride, b.Interleave)
		}
	}
}

func TestAlignmentFallback(t *testing.T) {
	r := newRuntime(t, DefaultPolicy())
	a, err := r.AllocAffine(AffineSpec{ElemSize: 4, NumElem: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	// elem 12B against 4B target: intrlv = 3*64 = 192, not a power of
	// two and padding to 256 would need stride 16 with elem 12 — allowed
	// (16 <= 4*12). Use a ratio that cannot pad: p=7.
	b, err := r.AllocAffine(AffineSpec{ElemSize: 12, NumElem: 100, AlignTo: a.Base, AlignP: 7})
	if err != nil {
		t.Fatal(err)
	}
	if b.Interleave != 0 && r.Stats.Fallbacks == 0 && r.Stats.PaddedArrays == 0 {
		t.Errorf("expected fallback or padding for irrational alignment, got interleave %d", b.Interleave)
	}
}

func TestPartitionDistributesEvenly(t *testing.T) {
	r := newRuntime(t, DefaultPolicy())
	// 64 banks, 1<<18 elements of 4B = 1MB → 16kB per bank → page-mapped.
	v, err := r.AllocAffine(AffineSpec{ElemSize: 4, NumElem: 1 << 18, Partition: true})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int64)
	for i := int64(0); i < v.NumElem; i += 64 {
		counts[r.BankOf(v.ElemAddr(i))]++
	}
	if len(counts) != 64 {
		t.Fatalf("partition touched %d banks, want 64", len(counts))
	}
	var min, max int64 = 1 << 62, 0
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > max/8 {
		t.Errorf("partition imbalance: min %d max %d", min, max)
	}
	// Partition k should hold contiguous elements: element 0 and element
	// N/64-1 on bank 0.
	if b := r.BankOf(v.ElemAddr(0)); b != 0 {
		t.Errorf("first element on bank %d, want 0", b)
	}
	if b := r.BankOf(v.ElemAddr(v.NumElem - 1)); b != 63 {
		t.Errorf("last element on bank %d, want 63", b)
	}
}

func TestSmallPartitionUsesPool(t *testing.T) {
	r := newRuntime(t, DefaultPolicy())
	// 64k elements of 4B = 256kB → 4kB per bank → pool path.
	v, err := r.AllocAffine(AffineSpec{ElemSize: 4, NumElem: 1 << 16, Partition: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.PageMapped {
		t.Error("small partition used page mapping")
	}
	if v.Interleave != 4096 {
		t.Errorf("interleave %d, want 4096", v.Interleave)
	}
}

func TestAlignToPartitionedArray(t *testing.T) {
	r := newRuntime(t, DefaultPolicy())
	v, err := r.AllocAffine(AffineSpec{ElemSize: 8, NumElem: 1 << 17, Partition: true})
	if err != nil {
		t.Fatal(err)
	}
	q, err := r.AllocAffine(AffineSpec{ElemSize: 8, NumElem: 1 << 17, AlignTo: v.Base})
	if err != nil {
		t.Fatal(err)
	}
	mismatches := 0
	for i := int64(0); i < v.NumElem; i += 97 {
		if r.BankOf(v.ElemAddr(i)) != r.BankOf(q.ElemAddr(i)) {
			mismatches++
		}
	}
	// Page-granularity mirroring may misalign at partition boundaries;
	// the overwhelming majority must colocate.
	if mismatches > int(v.NumElem/97/50) {
		t.Errorf("%d mismatched banks out of %d sampled", mismatches, v.NumElem/97)
	}
}

func TestIntraArrayAffinity(t *testing.T) {
	r := newRuntime(t, DefaultPolicy())
	// Rows of N=1024 floats: want row i and row i+1 close (Fig 8c).
	n := int64(1024)
	a, err := r.AllocAffine(AffineSpec{ElemSize: 4, NumElem: 256 * n, AlignX: n})
	if err != nil {
		t.Fatal(err)
	}
	if a.Interleave == 0 {
		t.Fatal("intra-array affinity fell back")
	}
	mesh := r.Mesh()
	total := 0
	samples := 0
	for i := int64(0); i+n < a.NumElem; i += 511 {
		total += mesh.Hops(r.BankOf(a.ElemAddr(i)), r.BankOf(a.ElemAddr(i+n)))
		samples++
	}
	avg := float64(total) / float64(samples)
	if avg > 1.5 {
		t.Errorf("avg row-to-row distance %.2f hops, want <= 1.5 (interleave %d)", avg, a.Interleave)
	}
}

func TestAllocAffineAtBank(t *testing.T) {
	r := newRuntime(t, DefaultPolicy())
	for _, bank := range []int{0, 5, 63} {
		a, err := r.AllocAffineAtBank(AffineSpec{ElemSize: 4, NumElem: 1024}, bank)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.BankOf(a.Base); got != bank {
			t.Errorf("forced bank %d, got %d", bank, got)
		}
	}
}

func TestIrregularAllocationRoundsToChunk(t *testing.T) {
	r := newRuntime(t, DefaultPolicy())
	addr, err := r.AllocNear(40, nil)
	if err != nil {
		t.Fatal(err)
	}
	if addr%64 != 0 {
		t.Errorf("chunk %#x not 64B aligned", uint64(addr))
	}
	if _, err := r.AllocNear(0, nil); err == nil {
		t.Error("zero-size AllocNear succeeded")
	}
	if _, err := r.AllocNear(8192, nil); err == nil {
		t.Error("oversized AllocNear succeeded")
	}
	aff := make([]memsim.Addr, MaxAffinityAddrs+1)
	for i := range aff {
		aff[i] = addr
	}
	if _, err := r.AllocNear(64, aff); err == nil {
		t.Error("AllocNear with too many affinity addresses succeeded")
	}
}

func TestMinHopColocates(t *testing.T) {
	r := newRuntime(t, PolicyConfig{Policy: MinHop})
	first, err := r.AllocNear(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := first
	for i := 0; i < 100; i++ {
		n, err := r.AllocNear(64, []memsim.Addr{prev})
		if err != nil {
			t.Fatal(err)
		}
		if r.BankOf(n) != r.BankOf(prev) {
			t.Fatalf("MinHop placed node %d on bank %d, want %d", i, r.BankOf(n), r.BankOf(prev))
		}
		prev = n
	}
}

func TestHybridSpillsUnderLoad(t *testing.T) {
	r := newRuntime(t, PolicyConfig{Policy: Hybrid, H: 5})
	anchor, err := r.AllocNear(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	banks := make(map[int]int)
	for i := 0; i < 1000; i++ {
		n, err := r.AllocNear(64, []memsim.Addr{anchor})
		if err != nil {
			t.Fatal(err)
		}
		banks[r.BankOf(n)]++
	}
	if len(banks) < 4 {
		t.Errorf("Hybrid used only %d banks under heavy skew, want spill", len(banks))
	}
	// But affinity should still matter: the anchor's bank must be the
	// most popular one.
	anchorBank := r.BankOf(anchor)
	for b, c := range banks {
		if c > banks[anchorBank] && b != anchorBank {
			t.Errorf("bank %d (%d allocs) beat anchor bank %d (%d)", b, c, anchorBank, banks[anchorBank])
		}
	}
}

func TestLnrRoundRobin(t *testing.T) {
	r := newRuntime(t, PolicyConfig{Policy: Lnr})
	for i := 0; i < 130; i++ {
		n, err := r.AllocNear(64, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.BankOf(n); got != i%64 {
			t.Fatalf("alloc %d on bank %d, want %d", i, got, i%64)
		}
	}
}

func TestRndIsDeterministicPerSeed(t *testing.T) {
	r1 := newRuntime(t, PolicyConfig{Policy: Rnd})
	r2 := newRuntime(t, PolicyConfig{Policy: Rnd})
	for i := 0; i < 50; i++ {
		a1, _ := r1.AllocNear(64, nil)
		a2, _ := r2.AllocNear(64, nil)
		if r1.BankOf(a1) != r2.BankOf(a2) {
			t.Fatal("Rnd policy not reproducible for fixed seed")
		}
	}
}

func TestFreeReusesIrregularChunk(t *testing.T) {
	r := newRuntime(t, PolicyConfig{Policy: MinHop})
	a, err := r.AllocNear(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	bank := r.BankOf(a)
	if err := r.Free(a); err != nil {
		t.Fatal(err)
	}
	// Allocate with affinity to the freed address (it still maps to a
	// bank): MinHop targets that bank and the freed chunk is reused.
	c, err := r.AllocNear(64, []memsim.Addr{a})
	if err != nil {
		t.Fatal(err)
	}
	if c != a || r.BankOf(c) != bank {
		t.Errorf("freed chunk not reused: got %#x bank %d, want %#x bank %d", uint64(c), r.BankOf(c), uint64(a), bank)
	}
}

func TestFreeAffineArrayReuse(t *testing.T) {
	r := newRuntime(t, DefaultPolicy())
	a, err := r.AllocAffine(AffineSpec{ElemSize: 4, NumElem: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	base := a.Base
	if err := r.Free(base); err != nil {
		t.Fatal(err)
	}
	if err := r.Free(base); err == nil {
		t.Error("double free succeeded")
	}
	b, err := r.AllocAffine(AffineSpec{ElemSize: 4, NumElem: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if b.Base != base {
		t.Errorf("freed affine extent not reused: got %#x, want %#x", uint64(b.Base), uint64(base))
	}
}

func TestFreeUnknownAddressFails(t *testing.T) {
	r := newRuntime(t, DefaultPolicy())
	if err := r.Free(0x42); err == nil {
		t.Error("Free of unknown address succeeded")
	}
}

func TestLoadTrackingInvariant(t *testing.T) {
	r := newRuntime(t, PolicyConfig{Policy: Hybrid, H: 3})
	addrs := make([]memsim.Addr, 0, 200)
	for i := 0; i < 200; i++ {
		a, err := r.AllocNear(64, nil)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	sum := 0
	for _, l := range r.LoadVector() {
		sum += l
	}
	if sum != 200 || r.totalLoad != 200 {
		t.Fatalf("load sum %d / total %d, want 200", sum, r.totalLoad)
	}
	for _, a := range addrs[:100] {
		if err := r.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	sum = 0
	for _, l := range r.LoadVector() {
		sum += l
	}
	if sum != 100 || r.totalLoad != 100 {
		t.Fatalf("after frees: load sum %d / total %d, want 100", sum, r.totalLoad)
	}
}

func TestIrregularChunkPhaseProperty(t *testing.T) {
	r := newRuntime(t, PolicyConfig{Policy: Rnd})
	// Property: every irregular allocation's bank (per Eq. 1) equals the
	// bank recorded by the load tracker's selection.
	prop := func(sizeSeed uint8) bool {
		size := int64(sizeSeed%200) + 1
		a, err := r.AllocNear(size, nil)
		if err != nil {
			return false
		}
		// All bytes of the chunk live on one bank.
		chunk := int64(r.chunks[a])
		return r.BankOf(a) == r.BankOf(a+memsim.Addr(chunk-1))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSelectBankAllocatesNothing: MinHop and Hybrid score banks over
// scratch the runtime keeps, and every policy reads the surviving banks
// through a view, so choosing a bank allocates nothing for any
// affinity-list length up to the cap, repeated banks included, on a
// clean machine or one with a dead bank. On the dead-bank machine the
// first choices are pinned to the ones the copying survivor list gave.
func TestSelectBankAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		pcfg PolicyConfig
		dead bool
		want []int // first banks chosen over aff[:1], aff[:2], …
	}{
		{PolicyConfig{Policy: MinHop}, false, nil},
		{PolicyConfig{Policy: Hybrid, H: 5}, false, nil},
		{PolicyConfig{Policy: Rnd}, true, []int{42, 49, 10, 10, 21, 60, 20, 32}},
		{PolicyConfig{Policy: MinHop}, true, []int{0, 0, 10, 10, 11, 10, 11, 10}},
		{PolicyConfig{Policy: Hybrid, H: 5}, true, []int{17, 17, 18, 18, 19, 18, 19, 18}},
	} {
		r := newRuntime(t, tc.pcfg)
		aff := make([]memsim.Addr, MaxAffinityAddrs)
		for i := range aff {
			a, err := r.AllocAtBank(64, i*5%17)
			if err != nil {
				t.Fatal(err)
			}
			aff[i] = a
		}
		if tc.dead {
			if err := r.space.KillBank(5); err != nil {
				t.Fatal(err)
			}
			var got []int
			for n := 1; n <= 8; n++ {
				got = append(got, r.selectBank(aff[:n]))
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("policy %v after KillBank(5): chose banks %v, want %v", tc.pcfg.Policy, got, tc.want)
			}
		}
		for n := 1; n <= MaxAffinityAddrs; n++ {
			if allocs := testing.AllocsPerRun(20, func() {
				if b := r.selectBank(aff[:n]); !r.space.BankAlive(b) {
					t.Fatalf("policy %v chose dead bank %d", tc.pcfg.Policy, b)
				}
			}); allocs != 0 {
				t.Errorf("policy %v (dead bank %v): selectBank over %d addresses allocated %.0f times", tc.pcfg.Policy, tc.dead, n, allocs)
			}
		}
	}
}
