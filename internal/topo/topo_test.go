package topo

import (
	"testing"
	"testing/quick"
)

func TestRowMajorCoords(t *testing.T) {
	m := MustMesh(8, 8, RowMajor)
	if m.Banks() != 64 {
		t.Fatalf("Banks() = %d, want 64", m.Banks())
	}
	cases := []struct {
		bank int
		want Coord
	}{
		{0, Coord{0, 0}},
		{7, Coord{7, 0}},
		{8, Coord{0, 1}},
		{63, Coord{7, 7}},
	}
	for _, c := range cases {
		if got := m.CoordOf(c.bank); got != c.want {
			t.Errorf("CoordOf(%d) = %v, want %v", c.bank, got, c.want)
		}
		if got := m.BankAt(c.want); got != c.bank {
			t.Errorf("BankAt(%v) = %d, want %d", c.want, got, c.bank)
		}
	}
}

func TestQuadrantNumberingBijective(t *testing.T) {
	m := MustMesh(8, 8, Quadrant)
	seen := make(map[Coord]bool)
	for b := 0; b < m.Banks(); b++ {
		c := m.CoordOf(b)
		if seen[c] {
			t.Fatalf("coordinate %v assigned twice", c)
		}
		seen[c] = true
		if m.BankAt(c) != b {
			t.Fatalf("BankAt(CoordOf(%d)) = %d", b, m.BankAt(c))
		}
	}
	// Z-order keeps the first 4 banks in the top-left 2x2 quadrant.
	for b := 0; b < 4; b++ {
		c := m.CoordOf(b)
		if c.X >= 2 || c.Y >= 2 {
			t.Errorf("bank %d at %v, want inside 2x2 quadrant", b, c)
		}
	}
}

func TestQuadrantRequiresPow2Square(t *testing.T) {
	if _, err := NewMesh(8, 4, Quadrant); err == nil {
		t.Error("NewMesh(8,4,Quadrant) succeeded, want error")
	}
	if _, err := NewMesh(6, 6, Quadrant); err == nil {
		t.Error("NewMesh(6,6,Quadrant) succeeded, want error")
	}
}

func TestHopsMatchesRouteLength(t *testing.T) {
	m := MustMesh(8, 8, RowMajor)
	var buf []Link
	for from := 0; from < m.Banks(); from += 7 {
		for to := 0; to < m.Banks(); to += 5 {
			buf = m.Route(buf[:0], from, to)
			if len(buf) != m.Hops(from, to) {
				t.Fatalf("route %d->%d has %d links, Hops says %d", from, to, len(buf), m.Hops(from, to))
			}
		}
	}
}

func TestHopsProperties(t *testing.T) {
	m := MustMesh(8, 8, RowMajor)
	symmetric := func(a, b uint8) bool {
		x, y := int(a)%64, int(b)%64
		return m.Hops(x, y) == m.Hops(y, x)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("hops not symmetric: %v", err)
	}
	triangle := func(a, b, c uint8) bool {
		x, y, z := int(a)%64, int(b)%64, int(c)%64
		return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Errorf("triangle inequality violated: %v", err)
	}
	identity := func(a uint8) bool { return m.Hops(int(a)%64, int(a)%64) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("self distance nonzero: %v", err)
	}
}

func TestRouteIsXY(t *testing.T) {
	m := MustMesh(8, 8, RowMajor)
	var buf []Link
	buf = m.Route(buf, m.BankAt(Coord{1, 1}), m.BankAt(Coord{4, 3}))
	// X first: 3 east links, then 2 south links.
	for i := 0; i < 3; i++ {
		if buf[i].Dir != East {
			t.Fatalf("link %d dir = %v, want East", i, buf[i].Dir)
		}
	}
	for i := 3; i < 5; i++ {
		if buf[i].Dir != South {
			t.Fatalf("link %d dir = %v, want South", i, buf[i].Dir)
		}
	}
}

func TestLinkIndexDense(t *testing.T) {
	m := MustMesh(4, 4, RowMajor)
	seen := make(map[int]bool)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			for d := East; d <= North; d++ {
				idx := m.LinkIndex(Link{From: Coord{x, y}, Dir: d})
				if idx < 0 || idx >= m.NumLinks() {
					t.Fatalf("LinkIndex out of range: %d", idx)
				}
				if seen[idx] {
					t.Fatalf("LinkIndex %d duplicated", idx)
				}
				seen[idx] = true
			}
		}
	}
}

// TestXYLegsMatchRoute pins XYLegs to Route and LinkIndex: for every
// pair of banks, its two legs name exactly the dense indices of Route's
// links, in order.
func TestXYLegsMatchRoute(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *Mesh
	}{
		{"8x8 row-major", MustMesh(8, 8, RowMajor)},
		{"8x8 quadrant", MustMesh(8, 8, Quadrant)},
		{"4x2 row-major", MustMesh(4, 2, RowMajor)},
		{"1x1", MustMesh(1, 1, RowMajor)},
	} {
		m := tc.m
		var route []Link
		for from := 0; from < m.Banks(); from++ {
			for to := 0; to < m.Banks(); to++ {
				route = m.Route(route[:0], from, to)
				x0, xStep, dx, y0, yStep, dy := m.XYLegs(from, to)
				if dx < 0 || dy < 0 || dx+dy != len(route) {
					t.Fatalf("%s %d->%d: legs of %d+%d links, route has %d",
						tc.name, from, to, dx, dy, len(route))
				}
				var legs []int
				for i := 0; i < dx; i++ {
					legs = append(legs, x0+i*xStep)
				}
				for i := 0; i < dy; i++ {
					legs = append(legs, y0+i*yStep)
				}
				for i, l := range route {
					if legs[i] != m.LinkIndex(l) {
						t.Fatalf("%s %d->%d: link %d is index %d, legs say %d",
							tc.name, from, to, i, m.LinkIndex(l), legs[i])
					}
				}
			}
		}
	}
}

func TestMemControllersAtCorners(t *testing.T) {
	m := MustMesh(8, 8, RowMajor)
	ctrls := m.MemControllers()
	if len(ctrls) != 4 {
		t.Fatalf("got %d controllers, want 4", len(ctrls))
	}
	want := map[int]bool{0: true, 7: true, 56: true, 63: true}
	for _, c := range ctrls {
		if !want[c] {
			t.Errorf("unexpected controller bank %d", c)
		}
	}
	ctrl, hops := m.NearestMemController(9) // (1,1)
	if ctrl != 0 || hops != 2 {
		t.Errorf("NearestMemController(9) = %d,%d; want 0,2", ctrl, hops)
	}
}

func TestSingleTileMesh(t *testing.T) {
	m := MustMesh(1, 1, RowMajor)
	if m.Hops(0, 0) != 0 {
		t.Error("1x1 mesh self-hops nonzero")
	}
	if got := len(m.MemControllers()); got != 1 {
		t.Errorf("1x1 mesh has %d controllers, want 1 (deduped corners)", got)
	}
}
