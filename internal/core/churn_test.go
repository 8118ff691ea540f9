package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"affinityalloc/internal/memsim"
)

// affineChurn drives ops seeded affine allocations and frees (about three
// allocations to two frees; a third of the allocations aligned to a live
// array, a sixth at a forced start bank) and returns the FNV-1a digest of
// every placement in order. It is the poolRange stress: freed extents
// pile up, unsorted and uncoalesced, and every later allocation scans
// them.
func affineChurn(tb testing.TB, r *Runtime, seed int64, ops int) uint64 {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	var live []*ArrayInfo
	for op := 0; op < ops; op++ {
		if len(live) > 0 && rng.Intn(5) < 2 {
			i := rng.Intn(len(live))
			if err := r.Free(live[i].Base); err != nil {
				tb.Fatalf("op %d: %v", op, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		spec := AffineSpec{ElemSize: 4 << rng.Intn(3), NumElem: 64 + rng.Int63n(8192)}
		var (
			info *ArrayInfo
			err  error
		)
		switch k := rng.Intn(6); {
		case k < 2 && len(live) > 0:
			spec.AlignTo = live[rng.Intn(len(live))].Base
			spec.AlignX = rng.Int63n(64)
			info, err = r.AllocAffine(spec)
		case k == 2:
			info, err = r.AllocAffineAtBank(spec, rng.Intn(r.Mesh().Banks()))
		default:
			info, err = r.AllocAffine(spec)
		}
		if err != nil {
			tb.Fatalf("op %d: %v", op, err)
		}
		fmt.Fprintf(h, "%x/%d/%d/%d;", uint64(info.Base), info.Interleave, info.ElemStride, info.StartBank)
		live = append(live, info)
	}
	return h.Sum64()
}

// TestAffineChurnPlacementIdentity pins where a 4 096-op churn lands. The
// digest was recorded before poolRange gained its size filter; the filter
// only skips extents that could not have fit, so the same extent must win
// every scan.
func TestAffineChurnPlacementIdentity(t *testing.T) {
	const want = 0xccca6bbd70d42f34
	r := newRuntime(t, DefaultPolicy())
	if got := affineChurn(t, r, 16, 4096); got != want {
		t.Errorf("placement digest %#x, want %#x: an allocation moved", got, uint64(want))
	}
	if got := r.Space().BackedBytes(); got != 0 {
		t.Errorf("placement alone materialised %d bytes of simulated memory", got)
	}
}

// BenchmarkPoolRangeChurn measures one affine allocate+free pair after
// 1 024 to 16 384 ops of churn history: the free list grows with history,
// so the pair's cost shows what one scan entry costs.
func BenchmarkPoolRangeChurn(b *testing.B) {
	for _, history := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			r := newRuntime(b, DefaultPolicy())
			affineChurn(b, r, 16, history)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Larger than any churn extent: the scan visits the whole
				// list, then reuses the extent the previous pair freed.
				info, err := r.AllocAffine(AffineSpec{ElemSize: 8, NumElem: 1 << 17})
				if err != nil {
					b.Fatal(err)
				}
				if err := r.Free(info.Base); err != nil {
					b.Fatal(err)
				}
			}
			extents := float64(len(r.freeRanges[memsim.LineSize]))
			b.ReportMetric(extents, "free-extents")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/extents, "ns/extent")
		})
	}
}
