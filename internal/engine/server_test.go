package engine

import (
	"math/rand"
	"testing"
)

// TestNewServerClampsCapacity: unitsPerCycle <= 0 used to yield a
// zero-capacity server whose Reserve spun forever in its units>0 loop.
// It now clamps to one unit per cycle, like width and windowBuckets.
func TestNewServerClampsCapacity(t *testing.T) {
	for _, units := range []int{0, -3} {
		s := NewServer(units, 8, 16)
		// 24 units at 1 unit/cycle fill buckets 0..2; service starts at 0.
		if got := s.Reserve(0, 24); got != 0 {
			t.Errorf("NewServer(%d,8,16).Reserve(0,24) = %d, want 0", units, got)
		}
		// The next unit must queue into bucket 3 (cycle 24), proving the
		// clamped capacity is exactly 1 unit/cycle.
		if got := s.Reserve(0, 1); got != 24 {
			t.Errorf("NewServer(%d,8,16) follow-up Reserve = %d, want 24", units, got)
		}
	}
}

// TestServerClampsOtherParams documents the existing width/window
// clamps alongside the capacity clamp.
func TestServerClampsOtherParams(t *testing.T) {
	s := NewServer(1, 0, 0)
	if s.width != 1 {
		t.Errorf("width = %d, want clamp to 1", s.width)
	}
	if s.buckets != 4 {
		t.Errorf("window = %d buckets, want clamp to 4", s.buckets)
	}
	if got := s.Reserve(5, 2); got != 5 {
		t.Errorf("Reserve(5,2) = %d, want 5", got)
	}
}

// refServer is the Server as it was before its window became a lazily
// built circular buffer of uint16 counts: an eager []int window indexed
// from its base, scanned linearly, that copies its live three quarters
// down on every slide. It is the oracle for the rewrite.
type refServer struct {
	width     Time
	perBucket int
	ring      []int
	base      Time
}

func newRefServer(unitsPerCycle int, width Time, windowBuckets int) *refServer {
	return &refServer{width: width, perBucket: unitsPerCycle * int(width), ring: make([]int, windowBuckets)}
}

func (s *refServer) slide(b int) int {
	n := len(s.ring)
	shift := b - (3*n)/4
	if shift <= 0 {
		return b
	}
	if shift >= n {
		for i := range s.ring {
			s.ring[i] = 0
		}
	} else {
		copy(s.ring, s.ring[shift:])
		for i := n - shift; i < n; i++ {
			s.ring[i] = 0
		}
	}
	s.base += Time(shift) * s.width
	return b - shift
}

func (s *refServer) reserve(at Time, units int) Time {
	if units <= 0 {
		return at
	}
	if at < s.base {
		at = s.base
	}
	b := int((at - s.base) / s.width)
	if b >= len(s.ring) {
		b = s.slide(b)
	}
	start := Time(0)
	first := true
	for units > 0 {
		if b >= len(s.ring) {
			b = s.slide(b)
		}
		free := s.perBucket - s.ring[b]
		if free > 0 {
			take := min(free, units)
			s.ring[b] += take
			units -= take
			if first {
				first = false
				start = MaxTime(at, s.base+Time(b)*s.width)
			}
		}
		b++
	}
	return start
}

// refWindows are the window lengths the differential covers: the clamp
// floor, lengths on either side of a power of two (the circular index
// must not assume one), and the machine's 4 096.
var refWindows = []int{4, 5, 16, 63, 64, 65, 4096}

// checkServerMatchesRef decodes data, three bytes an op, into an
// out-of-order (at, units) stream — requests near a moving cursor,
// requests far behind the window base, jumps past the whole window,
// single requests that spill across several slides, and saturating
// bursts whose full stretch later requests land inside — and requires
// the Server and refServer to grant the same cycles from the same base.
func checkServerMatchesRef(t testing.TB, unitsPerCycle int, width Time, buckets int, data []byte) {
	t.Helper()
	srv := NewServer(unitsPerCycle, width, buckets)
	ref := newRefServer(unitsPerCycle, width, buckets)
	span := Time(buckets) * width
	per := unitsPerCycle * int(width)
	var cursor Time
	var op int
	check := func(at Time, units int) {
		t.Helper()
		got, want := srv.Reserve(at, units), ref.reserve(at, units)
		if got != want || srv.base != ref.base {
			t.Fatalf("%d units/cycle, width %d, %d buckets, op %d (at %d, %d units): granted %d with base %d, reference %d with base %d",
				unitsPerCycle, width, buckets, op, at, units, got, srv.base, want, ref.base)
		}
	}
	for i := 0; i+3 <= len(data); i += 3 {
		op = i / 3
		kind, mag := data[i]%16, int(data[i+1])|int(data[i+2])<<8
		at, units := cursor, 1+mag%(2*per)
		switch {
		case kind == 15: // saturate one cursor, land inside the full stretch, then spill across a slide
			burst := 2 + mag%6
			for j := 0; j < burst; j++ {
				check(cursor, 3*per)
			}
			full := Time(3*burst) * width // cycles the bursts filled from the cursor's bucket on
			for j := 0; j < 4; j++ {
				check(cursor+Time(mag>>(3*j))%full, 1+j)
			}
			at, units = cursor+Time(mag)%full, per*buckets
		case kind == 0: // anywhere behind the cursor, often behind the base
			at = cursor * Time(mag) >> 16
		case kind == 1: // jump past the whole window
			cursor += span * Time(1+mag%3)
			at = cursor
		case kind == 2: // one request spilling across several slides
			units = per * (buckets + mag%(2*buckets))
		case kind < 6: // ahead of the cursor, inside the window span
			at = cursor + Time(mag)%span
		default: // the cursor advances; the request lands a little behind it
			cursor += Time(mag) % (2*width + 1)
			at = cursor - min(cursor, Time(mag>>8)%(4*width))
		}
		check(at, units)
	}
}

// TestServerMatchesReference runs the differential over the
// power-of-two widths 1–16, 1–3 units a cycle and every window in
// refWindows, on seeded streams.
func TestServerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	data := make([]byte, 3*600)
	for width := Time(1); width <= 16; width *= 2 {
		for units := 1; units <= 3; units++ {
			for _, buckets := range refWindows {
				rng.Read(data)
				checkServerMatchesRef(t, units, width, buckets, data)
			}
		}
	}
}

// FuzzServerReserve is the same differential with the fuzzer choosing
// the shape (width, units a cycle, window) and the op stream.
func FuzzServerReserve(f *testing.F) {
	f.Add(uint8(0x37), uint8(6), []byte{1, 0, 0, 2, 9, 0, 0, 200, 255, 7, 3, 0, 4, 99, 1})
	f.Add(uint8(0), uint8(0), []byte{6, 1, 0, 6, 1, 0, 2, 0, 0, 0, 128, 0})
	f.Add(uint8(0x17), uint8(2), []byte{15, 3, 0, 6, 7, 0, 15, 200, 1, 3, 40, 0, 15, 255, 255, 0, 9, 2})
	f.Fuzz(func(t *testing.T, shape, window uint8, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512] // a spill costs up to 3·4096 buckets; keep an exec short
		}
		width := Time(1) << (shape % 5)
		units := 1 + int(shape/16)%3
		checkServerMatchesRef(t, units, width, refWindows[int(window)%len(refWindows)], data)
	})
}

// TestServerRelease: a window goes back to its pool once, only if the
// server built one, and a recycled window serves like a fresh one.
func TestServerRelease(t *testing.T) {
	const buckets = 37 // no other test uses this length, so its pool starts empty
	pool := windowPool(buckets)
	// drain empties the pool and counts the windows it held.
	drain := func() (n int) {
		alloc := pool.New
		defer func() { pool.New = alloc }()
		pool.New = nil
		for pool.Get() != nil {
			n++
		}
		return n
	}

	untouched := NewServer(1, 8, buckets)
	untouched.Release()
	if n := drain(); n != 0 {
		t.Errorf("releasing a server that never reserved put %d window(s) into the pool", n)
	}

	used := NewServer(1, 8, buckets)
	used.Reserve(0, 8*buckets) // fill every bucket
	used.Release()
	used.Release()
	if n := drain(); n > 1 {
		t.Errorf("releasing one server twice put %d windows into the pool", n)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reserve on a released server did not panic")
			}
		}()
		used.Reserve(0, 1)
	}()

	used = NewServer(1, 8, buckets)
	used.Reserve(0, 8*buckets)
	used.Release()
	fresh := NewServer(1, 8, buckets)
	if got := fresh.Reserve(0, 1); got != 0 {
		t.Errorf("a server on a recycled window granted cycle %d, want 0", got)
	}
}

// TestNewServerPanicsOnOverflow: a bucket whose capacity cannot be
// counted in a uint16 is a programmer error.
func TestNewServerPanicsOnOverflow(t *testing.T) {
	for _, c := range []struct {
		units int
		width Time
	}{{8192, 8}, {1, 1 << 16}, {65536, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewServer(%d, %d, 16) did not panic", c.units, c.width)
				}
			}()
			NewServer(c.units, c.width, 16)
		}()
	}
	NewServer(8191, 8, 16) // 65 528 units a bucket fits
}

// TestServerRejectsOddWidth: a bucket width that is not a power of two
// would need a division per Reserve; no machine server uses one, so it
// is refused as a programmer error.
func TestServerRejectsOddWidth(t *testing.T) {
	for _, width := range []Time{3, 6, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewServer(1, %d, 16) did not panic", width)
				}
			}()
			NewServer(1, width, 16)
		}()
	}
}
