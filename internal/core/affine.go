package core

import (
	"fmt"

	"affinityalloc/internal/memsim"
)

// AllocAffine allocates an array per the Fig 8 API, choosing its
// interleaving from the affinity parameters:
//
//   - no affinity: the default line-size interleaving, maximizing
//     bank-level parallelism;
//   - inter-array affinity (AlignTo set): Eq. 3 scales the target array's
//     interleaving by the element-size and index ratios, and the start
//     bank is offset so B[0] lands with A[AlignX];
//   - intra-array affinity (AlignX set, AlignTo zero): the interleaving
//     minimizing the mean Manhattan distance between elements i and
//     i+AlignX;
//   - Partition: an interleaving spreading the array evenly across banks,
//     using page-granularity placement when the per-bank share exceeds a
//     page.
//
// When no supported interleaving satisfies the constraint exactly, the
// runtime first tries padding elements (recorded in Stats); if that also
// fails it falls back to the baseline allocator, exactly as §4.2
// prescribes, returning an ArrayInfo with Interleave == 0.
func (r *Runtime) AllocAffine(spec AffineSpec) (*ArrayInfo, error) {
	top := r.obsEnter()
	info, err := r.allocAffine(spec)
	if top {
		r.obs.ObserveAffine(spec.norm(), -1, info, err)
	}
	r.obsExit()
	return info, err
}

func (r *Runtime) allocAffine(spec AffineSpec) (*ArrayInfo, error) {
	spec = spec.norm()
	if spec.ElemSize <= 0 || spec.NumElem <= 0 {
		return nil, fmt.Errorf("core: invalid affine spec elem=%d n=%d", spec.ElemSize, spec.NumElem)
	}
	if spec.AlignTo != 0 && spec.Partition {
		return nil, fmt.Errorf("core: AlignTo and Partition are mutually exclusive")
	}
	r.Stats.AffineAllocs++

	switch {
	case spec.AlignTo != 0:
		return r.allocAligned(spec)
	case spec.Partition:
		return r.allocPartitioned(spec)
	case spec.AlignX > 0:
		return r.allocIntraAffine(spec)
	default:
		return r.allocDefault(spec, 0)
	}
}

// AllocAffineAtBank allocates like AllocAffine with no affinity
// parameters but forces the array's start bank — the hook the Fig-4
// Δ-bank layout sweep uses to construct deliberate misalignment.
func (r *Runtime) AllocAffineAtBank(spec AffineSpec, startBank int) (*ArrayInfo, error) {
	top := r.obsEnter()
	info, err := r.allocAffineAtBank(spec, startBank)
	if top {
		r.obs.ObserveAffine(spec.norm(), startBank, info, err)
	}
	r.obsExit()
	return info, err
}

func (r *Runtime) allocAffineAtBank(spec AffineSpec, startBank int) (*ArrayInfo, error) {
	spec = spec.norm()
	if startBank < 0 || startBank >= r.mesh.Banks() {
		return nil, fmt.Errorf("core: start bank %d out of range", startBank)
	}
	r.Stats.AffineAllocs++
	return r.allocDefault(spec, startBank)
}

// allocDefault places an array with line-size interleaving at the given
// start bank.
func (r *Runtime) allocDefault(spec AffineSpec, startBank int) (*ArrayInfo, error) {
	return r.finishPoolAlloc(spec, memsim.LineSize, spec.ElemSize, startBank)
}

// allocAligned implements inter-array affine affinity (Eq. 3).
func (r *Runtime) allocAligned(spec AffineSpec) (*ArrayInfo, error) {
	target, ok := r.arrays[spec.AlignTo]
	if !ok {
		return nil, fmt.Errorf("core: AlignTo %#x is not an allocated affine array", uint64(spec.AlignTo))
	}
	if target.Interleave == 0 {
		// The target itself fell back; no placement to align with.
		return r.fallback(spec)
	}
	if target.PageMapped {
		return r.allocAlignedPageMapped(spec, target)
	}

	// Eq. 3 with the target's effective (possibly padded) element
	// stride: intrlvB = (elemB/strideA) * (q/p) * intrlvA.
	num := int64(spec.ElemSize) * int64(spec.AlignQ) * int64(target.Interleave)
	den := int64(target.ElemStride) * int64(spec.AlignP)
	stride := int64(spec.ElemSize)
	var intrlv int64
	if num%den == 0 {
		intrlv = num / den
	}
	if intrlv < memsim.MinInterleave || (intrlv <= memsim.MaxInterleave && !r.space.ValidInterleave(int(intrlv))) {
		// Imperfect: try padding the element stride so a valid
		// interleaving aligns exactly. Solve for stride s with
		// (s/strideA)(q/p)·intrlvA = L over supported L.
		stride, intrlv = r.padForAlignment(spec, target)
		if stride == 0 {
			return r.fallback(spec)
		}
		r.Stats.PaddedArrays++
		r.Stats.PadBytes += uint64((stride - int64(spec.ElemSize)) * spec.NumElem)
	}
	if intrlv > memsim.MaxInterleave {
		// Beyond a page: place pages individually to mirror the target.
		return r.allocAlignedLarge(spec, target, stride, intrlv)
	}

	// B[0] aligns with A[AlignX].
	wantBank := r.bankOfTargetElem(target, spec.AlignX)
	info, err := r.finishPoolAllocStride(spec, int(intrlv), int(stride), wantBank)
	if err != nil {
		return nil, err
	}
	return info, nil
}

// bankOfTargetElem returns the bank of the target array's element x.
func (r *Runtime) bankOfTargetElem(target *ArrayInfo, x int64) int {
	if x < 0 {
		x = 0
	}
	if x >= target.NumElem {
		x = target.NumElem - 1
	}
	return r.space.MustBank(target.ElemAddr(x))
}

// padForAlignment searches supported interleavings for one reachable by
// padding the element stride, preferring the smallest padding. With the
// NPOT extension every line multiple is a candidate, which usually finds
// a zero- or near-zero-padding solution.
func (r *Runtime) padForAlignment(spec AffineSpec, target *ArrayInfo) (stride, intrlv int64) {
	p, q := int64(spec.AlignP), int64(spec.AlignQ)
	step := func(l int64) int64 {
		if r.space.ValidInterleave(int(l + memsim.LineSize)) {
			return l + memsim.LineSize
		}
		return l << 1
	}
	for l := int64(memsim.MinInterleave); l <= memsim.MaxInterleave; l = step(l) {
		// stride = L * strideA * p / (q * intrlvA)
		num := l * int64(target.ElemStride) * p
		den := q * int64(target.Interleave)
		if num%den != 0 {
			continue
		}
		s := num / den
		if s < int64(spec.ElemSize) {
			continue
		}
		if s > 4*int64(spec.ElemSize) && s > memsim.LineSize {
			// Padding beyond 4x (and beyond a line) wastes too much
			// space; prefer the fallback path.
			continue
		}
		return s, l
	}
	return 0, 0
}

// allocAlignedLarge handles Eq. 3 results beyond a page by mirroring the
// target's page-to-bank assignment at the scaled ratio.
func (r *Runtime) allocAlignedLarge(spec AffineSpec, target *ArrayInfo, stride, intrlv int64) (*ArrayInfo, error) {
	totalBytes := stride * spec.NumElem
	npages := (totalBytes + memsim.PageSize - 1) / memsim.PageSize
	banks := make([]int, npages)
	for pg := int64(0); pg < npages; pg++ {
		// Element at the start of page pg aligns to target element
		// (p/q)*i + x.
		i := pg * memsim.PageSize / stride
		tIdx := int64(spec.AlignP)*i/int64(spec.AlignQ) + spec.AlignX
		banks[pg] = r.bankOfTargetElem(target, tIdx)
	}
	base, err := r.space.AllocPageMapped(banks)
	if err != nil {
		return nil, err
	}
	info := &ArrayInfo{
		Base:       base,
		ElemSize:   spec.ElemSize,
		ElemStride: int(stride),
		NumElem:    spec.NumElem,
		Interleave: int(intrlv),
		PageMapped: true,
		StartBank:  banks[0],
		pageBanks:  banks,
	}
	r.arrays[base] = info
	return info, nil
}

// allocAlignedPageMapped aligns a new array to a page-mapped (typically
// partitioned) target: each page of the new array adopts the bank of the
// corresponding region of the target.
func (r *Runtime) allocAlignedPageMapped(spec AffineSpec, target *ArrayInfo) (*ArrayInfo, error) {
	stride := int64(spec.ElemSize)
	totalBytes := stride * spec.NumElem
	if totalBytes >= memsim.PageSize {
		return r.allocAlignedLarge(spec, target, stride, roundUpPow2(totalBytes/int64(r.mesh.Banks())))
	}
	// Small aligned array (e.g. the per-partition tail pointers of the
	// spatially distributed queue): pad each element to a line and place
	// its page(s)... a sub-page array cannot span banks, so pad elements
	// to one line each and page-map line groups. We allocate one page
	// per group of lines that share a bank under the target's mapping.
	stride = memsim.LineSize
	if int64(spec.ElemSize) > stride {
		stride = roundUpPow2(int64(spec.ElemSize))
	}
	perPage := memsim.PageSize / stride
	npages := (spec.NumElem + perPage - 1) / perPage
	banks := make([]int, npages)
	for pg := int64(0); pg < npages; pg++ {
		i := pg * perPage
		tIdx := int64(spec.AlignP)*i/int64(spec.AlignQ) + spec.AlignX
		banks[pg] = r.bankOfTargetElem(target, tIdx)
	}
	base, err := r.space.AllocPageMapped(banks)
	if err != nil {
		return nil, err
	}
	r.Stats.PaddedArrays++
	r.Stats.PadBytes += uint64((stride - int64(spec.ElemSize)) * spec.NumElem)
	info := &ArrayInfo{
		Base:       base,
		ElemSize:   spec.ElemSize,
		ElemStride: int(stride),
		NumElem:    spec.NumElem,
		Interleave: int(stride),
		PageMapped: true,
		StartBank:  banks[0],
		pageBanks:  banks,
	}
	r.arrays[base] = info
	return info, nil
}

// allocPartitioned spreads the array evenly across all banks (Fig 9).
func (r *Runtime) allocPartitioned(spec AffineSpec) (*ArrayInfo, error) {
	nb := int64(r.mesh.Banks())
	totalBytes := int64(spec.ElemSize) * spec.NumElem
	perBank := (totalBytes + nb - 1) / nb
	if perBank <= memsim.MaxInterleave {
		intrlv := roundUpPow2(perBank)
		if intrlv < memsim.MinInterleave {
			intrlv = memsim.MinInterleave
		}
		return r.finishPoolAlloc(spec, int(intrlv), spec.ElemSize, 0)
	}
	// Per-bank share exceeds a page: page-granularity placement, bank k
	// getting the k-th contiguous run of pages.
	pagesPerBank := (perBank + memsim.PageSize - 1) / memsim.PageSize
	banks := make([]int, 0, pagesPerBank*nb)
	npages := (totalBytes + memsim.PageSize - 1) / memsim.PageSize
	for pg := int64(0); pg < npages; pg++ {
		b := int(pg / pagesPerBank)
		if b >= int(nb) {
			b = int(nb) - 1
		}
		banks = append(banks, b)
	}
	base, err := r.space.AllocPageMapped(banks)
	if err != nil {
		return nil, err
	}
	info := &ArrayInfo{
		Base:       base,
		ElemSize:   spec.ElemSize,
		ElemStride: spec.ElemSize,
		NumElem:    spec.NumElem,
		Interleave: int(pagesPerBank * memsim.PageSize),
		PageMapped: true,
		StartBank:  0,
		pageBanks:  banks,
	}
	r.arrays[base] = info
	return info, nil
}

// allocIntraAffine picks the supported interleaving minimizing the mean
// Manhattan distance between elements i and i+AlignX (Fig 8c), then
// allocates with it.
func (r *Runtime) allocIntraAffine(spec AffineSpec) (*ArrayInfo, error) {
	gap := spec.AlignX * int64(spec.ElemSize)
	nb := r.mesh.Banks()
	bestL, bestDist := int64(memsim.LineSize), float64(1<<30)
	for l := int64(memsim.MinInterleave); l <= memsim.MaxInterleave; l <<= 1 {
		const samples = 128
		sum := 0
		for s := 0; s < samples; s++ {
			off := int64(s) * gap / samples
			b0 := int(off/l) % nb
			b1 := int((off+gap)/l) % nb
			sum += r.hops(b0, b1)
		}
		d := float64(sum) / samples
		// Prefer larger interleavings on ties: fewer migrations.
		if d < bestDist || (d == bestDist && l > bestL) {
			bestDist, bestL = d, l
		}
	}
	return r.finishPoolAlloc(spec, int(bestL), spec.ElemSize, 0)
}

// fallback serves an affine request from the baseline allocator.
func (r *Runtime) fallback(spec AffineSpec) (*ArrayInfo, error) {
	r.Stats.Fallbacks++
	base, err := r.AllocBase(int64(spec.ElemSize) * spec.NumElem)
	if err != nil {
		return nil, err
	}
	info := &ArrayInfo{
		Base:       base,
		ElemSize:   spec.ElemSize,
		ElemStride: spec.ElemSize,
		NumElem:    spec.NumElem,
		Interleave: 0,
		StartBank:  r.space.MustBank(base),
	}
	r.arrays[base] = info
	return info, nil
}

// finishPoolAlloc allocates from the pool with the given interleaving and
// start bank, with an unpadded stride.
func (r *Runtime) finishPoolAlloc(spec AffineSpec, intrlv, stride, wantBank int) (*ArrayInfo, error) {
	return r.finishPoolAllocStride(spec, intrlv, stride, wantBank)
}

func (r *Runtime) finishPoolAllocStride(spec AffineSpec, intrlv, stride, wantBank int) (*ArrayInfo, error) {
	bytes := int64(stride) * spec.NumElem
	base, err := r.poolRange(intrlv, bytes, wantBank)
	if err != nil {
		return nil, err
	}
	info := &ArrayInfo{
		Base:       base,
		ElemSize:   spec.ElemSize,
		ElemStride: stride,
		NumElem:    spec.NumElem,
		Interleave: intrlv,
		StartBank:  wantBank,
	}
	r.arrays[base] = info
	return info, nil
}

// poolRange finds (or creates) a pool extent of `bytes` whose base is
// interleave-aligned and phase-mapped to wantBank. Freed affine extents
// are reused first-fit.
func (r *Runtime) poolRange(intrlv int, bytes int64, wantBank int) (memsim.Addr, error) {
	pool, err := r.space.Pool(intrlv)
	if err != nil {
		return 0, err
	}
	nb := memsim.Addr(r.mesh.Banks())
	il := memsim.Addr(intrlv)

	align := func(base memsim.Addr) memsim.Addr {
		// Round up to an interleave boundary (relative to the pool start
		// — NPOT interleavings do not divide the pool base) whose phase
		// is wantBank.
		rel := base - pool.Start
		rel = (rel + il - 1) / il * il
		phase := rel / il % nb
		want := memsim.Addr(wantBank)
		if phase != want {
			rel += ((want + nb - phase) % nb) * il
		}
		return pool.Start + rel
	}

	// Reuse a freed extent when one fits after phase alignment.
	ranges := r.freeRanges[intrlv]
	for i, fr := range ranges {
		if fr.size < bytes {
			continue // cannot fit even unpadded; skip align's divisions
		}
		base := align(fr.start)
		pad := int64(base - fr.start)
		if pad+bytes <= fr.size {
			// Consume from the front; return the tail (and any leading
			// pad) to the free list.
			rest := addrRange{start: base + memsim.Addr(bytes), size: fr.size - pad - bytes}
			ranges[i] = ranges[len(ranges)-1]
			ranges = ranges[:len(ranges)-1]
			if pad > 0 {
				ranges = append(ranges, addrRange{start: fr.start, size: pad})
			}
			if rest.size > 0 {
				ranges = append(ranges, rest)
			}
			r.freeRanges[intrlv] = ranges
			return base, nil
		}
	}

	// Expand the pool with enough slack to phase-align.
	slack := int64(nb) * int64(intrlv)
	extBase, err := r.space.ExpandPool(intrlv, memsim.Addr(bytes+slack))
	if err != nil {
		return 0, err
	}
	base := align(extBase)
	if pad := int64(base - extBase); pad > 0 {
		r.freeRanges[intrlv] = append(r.freeRanges[intrlv], addrRange{start: extBase, size: pad})
	}
	extEnd := extBase + memsim.Addr(roundUp(bytes+slack, memsim.PageSize))
	if rest := int64(extEnd - (base + memsim.Addr(bytes))); rest > 0 {
		r.freeRanges[intrlv] = append(r.freeRanges[intrlv], addrRange{start: base + memsim.Addr(bytes), size: rest})
	}
	return base, nil
}
