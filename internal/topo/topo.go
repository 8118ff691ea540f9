// Package topo models the on-chip tiled topology: a 2D mesh of tiles, each
// holding a core, private caches, and one shared L3 bank. It provides bank
// numbering, coordinate math, X-Y route enumeration, and Manhattan
// distances — the geometric substrate every placement decision in the
// affinity allocator is scored against.
package topo

import "fmt"

// Coord is a tile position on the mesh. X grows rightward (columns),
// Y grows downward (rows).
type Coord struct {
	X, Y int
}

// Numbering selects how banks are numbered onto mesh coordinates.
// The paper uses row-major 1D linear numbering (§4.1); quadrant
// numbering is implemented as the "other interleave patterns" extension.
type Numbering int

const (
	// RowMajor numbers banks left-to-right, top-to-bottom.
	RowMajor Numbering = iota
	// Quadrant recursively fills quadrants (Z-order), keeping nearby
	// bank numbers spatially clustered at all scales.
	Quadrant
)

func (n Numbering) String() string {
	switch n {
	case RowMajor:
		return "row-major"
	case Quadrant:
		return "quadrant"
	default:
		return fmt.Sprintf("Numbering(%d)", int(n))
	}
}

// Mesh is a W×H tile grid with a fixed bank numbering. It is immutable
// after construction and safe for concurrent use.
type Mesh struct {
	width, height int
	bankToCoord   []Coord
	coordToBank   []int // indexed by y*width+x
}

// NewMesh builds a mesh of the given dimensions. Width and height must be
// positive; Quadrant numbering additionally requires power-of-two square
// dimensions.
func NewMesh(width, height int, numbering Numbering) (*Mesh, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("topo: invalid mesh %dx%d", width, height)
	}
	if numbering == Quadrant {
		if width != height || !isPow2(width) {
			return nil, fmt.Errorf("topo: quadrant numbering needs a power-of-two square mesh, got %dx%d", width, height)
		}
	}
	m := &Mesh{
		width:       width,
		height:      height,
		bankToCoord: make([]Coord, width*height),
		coordToBank: make([]int, width*height),
	}
	for bank := 0; bank < width*height; bank++ {
		var c Coord
		switch numbering {
		case RowMajor:
			c = Coord{X: bank % width, Y: bank / width}
		case Quadrant:
			c = zOrderCoord(bank)
		}
		m.bankToCoord[bank] = c
		m.coordToBank[c.Y*width+c.X] = bank
	}
	return m, nil
}

// MustMesh is NewMesh that panics on error, for static configurations.
func MustMesh(width, height int, numbering Numbering) *Mesh {
	m, err := NewMesh(width, height, numbering)
	if err != nil {
		panic(err)
	}
	return m
}

// zOrderCoord decodes a Z-order (Morton) index into a coordinate.
func zOrderCoord(idx int) Coord {
	var c Coord
	for bit := 0; idx>>(2*bit) != 0; bit++ {
		c.X |= (idx >> (2 * bit) & 1) << bit
		c.Y |= (idx >> (2*bit + 1) & 1) << bit
	}
	return c
}

// Width returns the number of columns.
func (m *Mesh) Width() int { return m.width }

// Height returns the number of rows.
func (m *Mesh) Height() int { return m.height }

// Banks returns the total number of banks (== tiles).
func (m *Mesh) Banks() int { return m.width * m.height }

// CoordOf returns the mesh coordinate of a bank.
func (m *Mesh) CoordOf(bank int) Coord {
	return m.bankToCoord[bank]
}

// BankAt returns the bank number at a coordinate.
func (m *Mesh) BankAt(c Coord) int {
	return m.coordToBank[c.Y*m.width+c.X]
}

// Hops returns the Manhattan distance between two banks, which is the
// number of link traversals under X-Y dimension-ordered routing.
func (m *Mesh) Hops(from, to int) int {
	a, b := m.bankToCoord[from], m.bankToCoord[to]
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

// AddHopsFrom adds, for every column x and row y, the hops along each
// axis between that column or row and the given bank: cols[x] +=
// |x − x(bank)|, rows[y] += |y − y(bank)|. Hops separates by axis, so
// after calls for banks a₁…aₙ, Σᵢ Hops(b, aᵢ) is cols[x(b)] + rows[y(b)]
// for every bank b. cols and rows must be Width and Height long.
func (m *Mesh) AddHopsFrom(bank int, cols, rows []int) {
	c := m.bankToCoord[bank]
	for x := range cols {
		cols[x] += abs(x - c.X)
	}
	for y := range rows {
		rows[y] += abs(y - c.Y)
	}
}

// LinkDir identifies the four mesh link directions.
type LinkDir int

const (
	East LinkDir = iota
	West
	South
	North
)

// Link identifies one directed mesh link leaving tile From.
type Link struct {
	From Coord
	Dir  LinkDir
}

// Route appends to dst the directed links traversed by an X-Y route from
// one bank to another and returns the extended slice. A zero-hop route
// appends nothing. Reusing dst across calls avoids allocation on hot paths.
func (m *Mesh) Route(dst []Link, from, to int) []Link {
	cur := m.bankToCoord[from]
	end := m.bankToCoord[to]
	for cur.X != end.X {
		if cur.X < end.X {
			dst = append(dst, Link{From: cur, Dir: East})
			cur.X++
		} else {
			dst = append(dst, Link{From: cur, Dir: West})
			cur.X--
		}
	}
	for cur.Y != end.Y {
		if cur.Y < end.Y {
			dst = append(dst, Link{From: cur, Dir: South})
			cur.Y++
		} else {
			dst = append(dst, Link{From: cur, Dir: North})
			cur.Y--
		}
	}
	return dst
}

// LinkIndex flattens a Link into a dense index in [0, 4*W*H), suitable for
// per-link counters.
func (m *Mesh) LinkIndex(l Link) int {
	return (l.From.Y*m.width+l.From.X)*4 + int(l.Dir)
}

// XYLegs describes the route Route would list as two legs of dense link
// indices, so a hot path can walk it without building the list: the X
// leg is dx links starting at index x0, each xStep past the one before,
// and the Y leg is dy links starting at y0, yStep apart. Under
// LinkIndex's layout a step along a row moves the index by ±4 and a step
// down a column by ±4·W.
func (m *Mesh) XYLegs(from, to int) (x0, xStep, dx, y0, yStep, dy int) {
	a, b := m.bankToCoord[from], m.bankToCoord[to]
	xDir, yDir := East, South
	dx, dy, xStep, yStep = b.X-a.X, b.Y-a.Y, 4, 4*m.width
	if dx < 0 {
		dx, xDir, xStep = -dx, West, -xStep
	}
	if dy < 0 {
		dy, yDir, yStep = -dy, North, -yStep
	}
	// The X leg runs along the source row, the Y leg down the
	// destination column.
	x0 = m.LinkIndex(Link{From: a, Dir: xDir})
	y0 = m.LinkIndex(Link{From: Coord{X: b.X, Y: a.Y}, Dir: yDir})
	return x0, xStep, dx, y0, yStep, dy
}

// NumLinks returns the size of the dense link index space.
func (m *Mesh) NumLinks() int { return m.width * m.height * 4 }

// MemControllers returns the banks nearest the four mesh corners, where
// the DRAM channels attach (Table 2: "4 mem. ctrls ... at corners").
func (m *Mesh) MemControllers() []int {
	corners := []Coord{
		{0, 0},
		{m.width - 1, 0},
		{0, m.height - 1},
		{m.width - 1, m.height - 1},
	}
	banks := make([]int, 0, len(corners))
	seen := make(map[int]bool, len(corners))
	for _, c := range corners {
		b := m.BankAt(c)
		if !seen[b] {
			seen[b] = true
			banks = append(banks, b)
		}
	}
	return banks
}

// NearestMemController returns the memory-controller bank closest to the
// given bank and the hop distance to it.
func (m *Mesh) NearestMemController(bank int) (ctrl, hops int) {
	best, bestHops := -1, int(^uint(0)>>1)
	for _, c := range m.MemControllers() {
		if h := m.Hops(bank, c); h < bestHops {
			best, bestHops = c, h
		}
	}
	return best, bestHops
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }
