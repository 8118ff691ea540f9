package workloads

import (
	"testing"

	"affinityalloc/internal/core"
	"affinityalloc/internal/sys"
)

// buildAligned allocates an affinity-aligned operand/output pair.
func buildAligned(t *testing.T, s *sys.System, n int64) (*core.ArrayInfo, *core.ArrayInfo) {
	t.Helper()
	a, err := s.RT.AllocAffine(core.AffineSpec{ElemSize: 4, NumElem: n})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RT.AllocAffine(core.AffineSpec{ElemSize: 4, NumElem: n, AlignTo: a.Base})
	if err != nil {
		t.Fatal(err)
	}
	s.PreloadArray(a)
	s.PreloadArray(b)
	return a, b
}

func TestPassAlignedProducesNoDataTraffic(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig())
	a, b := buildAligned(t, s, 1<<14)
	p := pass{ops: []operand{{arr: a}}, out: b, n: 1 << 14, weight: 1}
	finish := p.runNSC(s, 0)
	if finish == 0 {
		t.Fatal("pass did not advance time")
	}
	d, _, _ := s.Collect(finish).DataHops()
	if d != 0 {
		t.Errorf("aligned pass moved %d data flit-hops", d)
	}
}

func TestPassBarriersCompose(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig())
	a, b := buildAligned(t, s, 1<<13)
	p := pass{ops: []operand{{arr: a}}, out: b, n: 1 << 13, weight: 1}
	t1 := p.runNSC(s, 0)
	t2 := p.runNSC(s, t1)
	if t2 <= t1 {
		t.Errorf("second pass finished at %d, not after barrier %d", t2, t1)
	}
}

func TestPassInCoreVsNSCSameChecksum(t *testing.T) {
	// The pass engine is timing-only; this asserts both paths complete
	// and produce sane metric structure on the same allocation pattern.
	for _, mode := range []sys.Mode{sys.InCore, sys.NearL3} {
		s := sys.MustNew(sys.DefaultConfig())
		base, err := s.RT.AllocBase(4 * (1 << 13))
		if err != nil {
			t.Fatal(err)
		}
		arr := &core.ArrayInfo{Base: base, ElemSize: 4, ElemStride: 4, NumElem: 1 << 13}
		out, err := s.RT.AllocBase(4 * (1 << 13))
		if err != nil {
			t.Fatal(err)
		}
		outArr := &core.ArrayInfo{Base: out, ElemSize: 4, ElemStride: 4, NumElem: 1 << 13}
		s.PreloadArray(arr)
		s.PreloadArray(outArr)
		p := pass{ops: []operand{{arr: arr}}, out: outArr, n: 1 << 13, weight: 1}
		if finish := p.run(s, mode, 0); finish == 0 {
			t.Errorf("%v pass did not run", mode)
		}
	}
}

func TestReduceTreeLatency(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig())
	done := reduceTree(s, 100)
	if done <= 100 {
		t.Error("reduction cost nothing")
	}
	// log2(64) = 6 levels; each a few hops: bounded well under 200.
	if done > 300 {
		t.Errorf("tree reduction took %d cycles", done-100)
	}
	// Control traffic only.
	m := s.Collect(done)
	d, c, _ := m.DataHops()
	if d != 0 || c == 0 {
		t.Errorf("reduction traffic d=%d c=%d", d, c)
	}
}

func TestCoreGroupsRotationCoversRange(t *testing.T) {
	s := sys.MustNew(sys.DefaultConfig())
	a, b := buildAligned(t, s, 1<<12)
	p := pass{ops: []operand{{arr: a}}, out: b, n: 1 << 12, weight: 1}
	covered := make([]bool, 1<<12)
	for c := 0; c < 64; c++ {
		gs := p.coreGroups(c, 64)
		for k := 0; k < gs.n; k++ {
			g0, g1 := gs.at(k)
			for i := g0; i < g1; i++ {
				if covered[i] {
					t.Fatalf("element %d covered twice", i)
				}
				covered[i] = true
			}
		}
	}
	for i, ok := range covered {
		if !ok {
			t.Fatalf("element %d never covered", i)
		}
	}
}

// refCoreGroups is the group list as it was materialised before
// coreGroups became a computed schedule: the core's range cut at
// multiples of the group size, then rotated.
func refCoreGroups(p pass, c, nC int) [][2]int64 {
	lo, hi := partition(p.n, nC, c)
	if lo >= hi {
		return nil
	}
	group := p.groupElems()
	var groups [][2]int64
	for g0 := lo; g0 < hi; {
		g1 := g0 + group - (g0 % group)
		if g1 > hi {
			g1 = hi
		}
		groups = append(groups, [2]int64{g0, g1})
		g0 = g1
	}
	rot := len(groups) * c / nC
	return append(groups[rot:], groups[:rot]...)
}

// TestCoreGroupsMatchesMaterialisedList: the computed schedule yields
// the materialised list, group for group, for every core — including
// fewer elements than cores (empty cores), ranges that start and end
// mid-group, one-element groups and a single core.
func TestCoreGroupsMatchesMaterialisedList(t *testing.T) {
	cases := []struct {
		n      int64
		nC     int
		stride int // output element stride: the group is 64/stride elements
	}{
		{n: 5, nC: 64, stride: 4},
		{n: 63, nC: 64, stride: 8},
		{n: 100, nC: 3, stride: 4},
		{n: 1000, nC: 7, stride: 8},
		{n: 1 << 12, nC: 64, stride: 4},
		{n: 12345, nC: 64, stride: 16},
		{n: 777, nC: 5, stride: 64},
		{n: 4099, nC: 1, stride: 4},
		{n: 3, nC: 2, stride: 128},
	}
	for _, tc := range cases {
		p := pass{out: &core.ArrayInfo{ElemSize: 4, ElemStride: tc.stride, NumElem: tc.n}, n: tc.n}
		for c := 0; c < tc.nC; c++ {
			want := refCoreGroups(p, c, tc.nC)
			gs := p.coreGroups(c, tc.nC)
			if gs.n != len(want) {
				t.Fatalf("n=%d nC=%d stride=%d core %d: %d groups, want %d", tc.n, tc.nC, tc.stride, c, gs.n, len(want))
			}
			for i, w := range want {
				if g0, g1 := gs.at(i); g0 != w[0] || g1 != w[1] {
					t.Fatalf("n=%d nC=%d stride=%d core %d group %d: [%d, %d), want [%d, %d)",
						tc.n, tc.nC, tc.stride, c, i, g0, g1, w[0], w[1])
				}
			}
		}
	}
}
