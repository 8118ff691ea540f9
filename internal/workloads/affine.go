package workloads

import (
	"fmt"

	"affinityalloc/internal/core"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/sys"
)

// allocAligned allocates base plus arrays aligned to it, per the mode:
// affinity specs under AffAlloc, baseline allocation otherwise.
func allocAligned(s *sys.System, mode sys.Mode, base core.AffineSpec, aligned ...core.AffineSpec) (*core.ArrayInfo, []*core.ArrayInfo, error) {
	bi, err := s.Alloc(mode, base)
	if err != nil {
		return nil, nil, err
	}
	s.PreloadArray(bi)
	out := make([]*core.ArrayInfo, len(aligned))
	for i, spec := range aligned {
		if mode == sys.AffAlloc {
			spec.AlignTo = bi.Base
		}
		out[i], err = s.Alloc(mode, spec)
		if err != nil {
			return nil, nil, err
		}
		s.PreloadArray(out[i])
	}
	return bi, out, nil
}

// VecAdd is C[i] = A[i] + B[i] over float32 — the running example of
// Figs 1, 3 and 4 and the quickstart workload.
type VecAdd struct {
	N int64
	// ForceDelta >= 0 forces C's start bank Delta banks after A/B's (the
	// Fig-4 layout sweep); it implies stream offloading with explicit
	// placement regardless of mode's usual allocator.
	ForceDelta int
}

// Name implements Workload.
func (w VecAdd) Name() string { return "vecadd" }

// Run implements Workload.
func (w VecAdd) Run(s *sys.System, mode sys.Mode) (Result, error) {
	spec := core.AffineSpec{ElemSize: 4, NumElem: w.N}
	var a, b, c *core.ArrayInfo
	var err error
	switch {
	case w.ForceDelta >= 0:
		// Fig 4: A and B aligned at bank 0, C displaced by Delta.
		if a, err = s.RT.AllocAffineAtBank(spec, 0); err != nil {
			return Result{}, err
		}
		if b, err = s.RT.AllocAffineAtBank(spec, 0); err != nil {
			return Result{}, err
		}
		if c, err = s.RT.AllocAffineAtBank(spec, w.ForceDelta%s.Mesh.Banks()); err != nil {
			return Result{}, err
		}
		s.PreloadArray(a)
		s.PreloadArray(b)
		s.PreloadArray(c)
	default:
		var aligned []*core.ArrayInfo
		a, aligned, err = allocAligned(s, mode, spec, spec, spec)
		if err != nil {
			return Result{}, err
		}
		b, c = aligned[0], aligned[1]
	}

	// Functional result.
	av := make([]float32, w.N)
	bv := make([]float32, w.N)
	cv := make([]float32, w.N)
	for i := range av {
		av[i] = float32(i%1024) * 0.5
		bv[i] = float32(i%733) * 0.25
		cv[i] = av[i] + bv[i]
	}

	p := pass{
		ops:    []operand{{arr: a}, {arr: b}},
		out:    c,
		n:      w.N,
		weight: 1,
	}
	finish := p.run(s, mode, 0)

	cs := newChecksum()
	cs.addU64(uint64(w.N))
	for i := int64(0); i < w.N; i += 64 {
		cs.addF32(cv[i])
	}
	return Result{Name: w.Name(), Mode: mode, Metrics: s.Collect(finish), Checksum: cs.sum()}, nil
}

// Pathfinder is Rodinia's pathfinder: a row-by-row dynamic program
// dst[i] = wall[t][i] + min(src[i-1], src[i], src[i+1]).
type Pathfinder struct {
	Cols  int64
	Steps int
}

// Name implements Workload.
func (w Pathfinder) Name() string { return "pathfinder" }

// Run implements Workload.
func (w Pathfinder) Run(s *sys.System, mode sys.Mode) (Result, error) {
	rowSpec := core.AffineSpec{ElemSize: 4, NumElem: w.Cols}
	wallSpec := core.AffineSpec{ElemSize: 4, NumElem: w.Cols * int64(w.Steps)}
	src, aligned, err := allocAligned(s, mode, rowSpec, rowSpec, wallSpec)
	if err != nil {
		return Result{}, err
	}
	dst, wall := aligned[0], aligned[1]

	// Functional DP on int-valued float32 costs (exact arithmetic).
	cur := make([]float32, w.Cols)
	nxt := make([]float32, w.Cols)
	wallv := make([]float32, w.Cols*int64(w.Steps))
	for i := range cur {
		cur[i] = float32((i * 7) % 10)
	}
	for i := range wallv {
		wallv[i] = float32((i*13 + 5) % 10)
	}

	var finish engine.Time
	for t := 0; t < w.Steps; t++ {
		for i := int64(0); i < w.Cols; i++ {
			m := cur[i]
			if i > 0 && cur[i-1] < m {
				m = cur[i-1]
			}
			if i+1 < w.Cols && cur[i+1] < m {
				m = cur[i+1]
			}
			nxt[i] = wallv[int64(t)*w.Cols+i] + m
		}
		cur, nxt = nxt, cur

		p := pass{
			ops: []operand{
				{arr: src, halo: true},
				{arr: wall, off: int64(t) * w.Cols},
			},
			out:    dst,
			n:      w.Cols,
			weight: 3,
		}
		finish = p.run(s, mode, finish)
		src, dst = dst, src
	}

	cs := newChecksum()
	for i := int64(0); i < w.Cols; i += 64 {
		cs.addF32(cur[i])
	}
	return Result{Name: w.Name(), Mode: mode, Metrics: s.Collect(finish), Checksum: cs.sum()}, nil
}

// stencil2D factors the shared structure of hotspot and srad.
type stencil2D struct {
	rows, cols int64
	iters      int
}

func (w stencil2D) allocGrids(s *sys.System, mode sys.Mode, nAligned int) (*core.ArrayInfo, []*core.ArrayInfo, error) {
	n := w.rows * w.cols
	base := core.AffineSpec{ElemSize: 4, NumElem: n, AlignX: w.cols} // intra-array row affinity (Fig 8c)
	specs := make([]core.AffineSpec, nAligned)
	for i := range specs {
		specs[i] = core.AffineSpec{ElemSize: 4, NumElem: n}
	}
	return allocAligned(s, mode, base, specs...)
}

// Hotspot is Rodinia's hotspot: a 5-point 2D heat stencil plus a power
// term.
type Hotspot struct{ stencil2D }

// NewHotspot builds a hotspot instance with explicit dimensions.
func NewHotspot(rows, cols int64, iters int) Hotspot {
	return Hotspot{stencil2D{rows: rows, cols: cols, iters: iters}}
}

// Name implements Workload.
func (w Hotspot) Name() string { return "hotspot" }

// Run implements Workload.
func (w Hotspot) Run(s *sys.System, mode sys.Mode) (Result, error) {
	n := w.rows * w.cols
	temp, aligned, err := w.allocGrids(s, mode, 2)
	if err != nil {
		return Result{}, err
	}
	tempOut, power := aligned[0], aligned[1]

	tv := make([]float32, n)
	pv := make([]float32, n)
	ov := make([]float32, n)
	for i := range tv {
		tv[i] = 320 + float32(i%97)*0.1
		pv[i] = float32(i%13) * 0.01
	}

	var finish engine.Time
	tIn, tOut := temp, tempOut
	for it := 0; it < w.iters; it++ {
		for i := int64(0); i < n; i++ {
			up := clampIdx(i-w.cols, n)
			dn := clampIdx(i+w.cols, n)
			lf := clampIdx(i-1, n)
			rt := clampIdx(i+1, n)
			ov[i] = tv[i] + 0.05*(tv[up]+tv[dn]+tv[lf]+tv[rt]-4*tv[i]) + pv[i]
		}
		tv, ov = ov, tv

		p := pass{
			ops: []operand{
				{arr: tIn, halo: true},
				{arr: tIn, off: -w.cols},
				{arr: tIn, off: w.cols},
				{arr: power},
			},
			out:    tOut,
			n:      n,
			weight: 8,
		}
		finish = p.run(s, mode, finish)
		tIn, tOut = tOut, tIn
	}

	cs := newChecksum()
	for i := int64(0); i < n; i += 257 {
		cs.addF32(tv[i])
	}
	return Result{Name: w.Name(), Mode: mode, Metrics: s.Collect(finish), Checksum: cs.sum()}, nil
}

// Srad is Rodinia's srad: per iteration, a statistics reduction, a
// diffusion-coefficient pass, and an update pass.
type Srad struct{ stencil2D }

// NewSrad builds an srad instance with explicit dimensions.
func NewSrad(rows, cols int64, iters int) Srad {
	return Srad{stencil2D{rows: rows, cols: cols, iters: iters}}
}

// Name implements Workload.
func (w Srad) Name() string { return "srad" }

// Run implements Workload.
func (w Srad) Run(s *sys.System, mode sys.Mode) (Result, error) {
	n := w.rows * w.cols
	img, aligned, err := w.allocGrids(s, mode, 2)
	if err != nil {
		return Result{}, err
	}
	coef, imgOut := aligned[0], aligned[1]

	iv := make([]float32, n)
	cv := make([]float32, n)
	ov := make([]float32, n)
	for i := range iv {
		iv[i] = 1 + float32(i%53)*0.02
	}

	var finish engine.Time
	for it := 0; it < w.iters; it++ {
		// Statistics reduction (mean over the region of interest).
		var sum float64
		for _, v := range iv {
			sum += float64(v)
		}
		q0 := float32(sum / float64(n))
		finish = reduceTree(s, finish)

		// Coefficient pass.
		for i := int64(0); i < n; i++ {
			up := clampIdx(i-w.cols, n)
			dn := clampIdx(i+w.cols, n)
			lf := clampIdx(i-1, n)
			rt := clampIdx(i+1, n)
			g := (iv[up] + iv[dn] + iv[lf] + iv[rt] - 4*iv[i]) / (iv[i] + q0)
			cv[i] = 1 / (1 + g*g)
		}
		p1 := pass{
			ops: []operand{
				{arr: img, halo: true},
				{arr: img, off: -w.cols},
				{arr: img, off: w.cols},
			},
			out:    coef,
			n:      n,
			weight: 20,
		}
		finish = p1.run(s, mode, finish)

		// Update pass.
		for i := int64(0); i < n; i++ {
			dn := clampIdx(i+w.cols, n)
			rt := clampIdx(i+1, n)
			div := cv[i]*2 + cv[dn] + cv[rt]
			ov[i] = iv[i] + 0.0625*div
		}
		iv, ov = ov, iv
		p2 := pass{
			ops: []operand{
				{arr: coef, halo: true},
				{arr: coef, off: w.cols},
				{arr: img},
			},
			out:    imgOut,
			n:      n,
			weight: 12,
		}
		finish = p2.run(s, mode, finish)
	}

	cs := newChecksum()
	for i := int64(0); i < n; i += 257 {
		cs.addF32(iv[i])
	}
	return Result{Name: w.Name(), Mode: mode, Metrics: s.Collect(finish), Checksum: cs.sum()}, nil
}

// Hotspot3D is Rodinia's hotspot3D: a 7-point 3D stencil.
type Hotspot3D struct {
	Rows, Cols, Layers int64
	Iters              int
}

// Name implements Workload.
func (w Hotspot3D) Name() string { return "hotspot3D" }

// Run implements Workload.
func (w Hotspot3D) Run(s *sys.System, mode sys.Mode) (Result, error) {
	plane := w.Rows * w.Cols
	n := plane * w.Layers
	base := core.AffineSpec{ElemSize: 4, NumElem: n, AlignX: w.Cols}
	gridSpec := core.AffineSpec{ElemSize: 4, NumElem: n}
	temp, aligned, err := allocAligned(s, mode, base, gridSpec, gridSpec)
	if err != nil {
		return Result{}, err
	}
	tempOut, power := aligned[0], aligned[1]
	if temp == nil || tempOut == nil || power == nil {
		return Result{}, fmt.Errorf("hotspot3D: allocation failed")
	}

	tv := make([]float32, n)
	pv := make([]float32, n)
	ov := make([]float32, n)
	for i := range tv {
		tv[i] = 300 + float32(i%89)*0.2
		pv[i] = float32(i%7) * 0.02
	}

	var finish engine.Time
	tIn, tOut := temp, tempOut
	for it := 0; it < w.Iters; it++ {
		for i := int64(0); i < n; i++ {
			nb := [6]int64{
				clampIdx(i-1, n), clampIdx(i+1, n),
				clampIdx(i-w.Cols, n), clampIdx(i+w.Cols, n),
				clampIdx(i-plane, n), clampIdx(i+plane, n),
			}
			acc := -6 * tv[i]
			for _, j := range nb {
				acc += tv[j]
			}
			ov[i] = tv[i] + 0.03*acc + pv[i]
		}
		tv, ov = ov, tv

		p := pass{
			ops: []operand{
				{arr: tIn, halo: true},
				{arr: tIn, off: -w.Cols},
				{arr: tIn, off: w.Cols},
				{arr: tIn, off: -plane},
				{arr: tIn, off: plane},
				{arr: power},
			},
			out:    tOut,
			n:      n,
			weight: 10,
		}
		finish = p.run(s, mode, finish)
		tIn, tOut = tOut, tIn
	}

	cs := newChecksum()
	for i := int64(0); i < n; i += 509 {
		cs.addF32(tv[i])
	}
	return Result{Name: w.Name(), Mode: mode, Metrics: s.Collect(finish), Checksum: cs.sum()}, nil
}
