package engine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestServerBackfillsIdleCapacity(t *testing.T) {
	srv := NewServer(1, 1, 64)
	// Reserve far in the future first.
	late := srv.Reserve(50, 1)
	if late != 50 {
		t.Errorf("late reservation at %d, want 50", late)
	}
	// An earlier request must still get the idle capacity before it —
	// the whole point versus a scalar busy-until.
	early := srv.Reserve(10, 1)
	if early != 10 {
		t.Errorf("early reservation at %d, want 10 (no phantom queueing)", early)
	}
}

func TestServerQueuesUnderOverload(t *testing.T) {
	srv := NewServer(1, 1, 128)
	// Saturate cycle 10: capacity is 1/cycle, so the k-th request waits
	// about k cycles.
	var last Time
	for k := 0; k < 20; k++ {
		last = srv.Reserve(10, 1)
	}
	if last < 25 || last > 40 {
		t.Errorf("20th reservation at %d, want pushed to ~29", last)
	}
}

func TestServerMultiUnitSpills(t *testing.T) {
	srv := NewServer(1, 4, 64) // 4 units per bucket
	start := srv.Reserve(0, 10)
	if start != 0 {
		t.Errorf("start %d, want 0", start)
	}
	// The 10 units filled buckets 0..2; a new request at 0 lands where
	// capacity remains.
	next := srv.Reserve(0, 4)
	if next < 8 {
		t.Errorf("next start %d, want >= 8 (first two buckets full)", next)
	}
}

func TestServerWindowSlide(t *testing.T) {
	srv := NewServer(1, 8, 16) // window covers 128 cycles
	if got := srv.Reserve(0, 1); got != 0 {
		t.Fatalf("first reservation at %d", got)
	}
	// Reserve far beyond the window: it must slide, not panic.
	far := srv.Reserve(10_000, 1)
	if far < 10_000 {
		t.Errorf("far reservation at %d, want >= 10000", far)
	}
	// Requests older than the slid window clamp to its base.
	old := srv.Reserve(0, 1)
	if old == 0 {
		t.Error("ancient reservation granted at 0 after window slid")
	}
}

func TestServerCapacityProperty(t *testing.T) {
	// Property: with capacity c/cycle, n same-time requests of 1 unit
	// finish within about n/c cycles of the request time.
	prop := func(nReq uint8, capacity uint8) bool {
		n := int(nReq%50) + 1
		c := int(capacity%4) + 1
		srv := NewServer(c, 4, 256)
		var last Time
		for i := 0; i < n; i++ {
			last = srv.Reserve(100, 1)
		}
		bound := Time(100 + n/c + 8)
		return last <= bound
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinMaxTime(t *testing.T) {
	if MaxTime(3, 5) != 5 || MaxTime(5, 3) != 5 {
		t.Error("MaxTime wrong")
	}
}

// TestSameCycleFIFO: requests for the same cycle are granted in call
// order, and a saturated server hands out its capacity without gaps.
func TestSameCycleFIFO(t *testing.T) {
	srv := NewServer(1, 1, 64)
	for k := 0; k < 16; k++ {
		if got := srv.Reserve(20, 1); got != Time(20+k) {
			t.Fatalf("request %d at cycle 20 granted at %d, want %d", k, got, 20+k)
		}
	}
}

// TestSchedulingInPastClamps: once the window has slid past a cycle, a
// request for that cycle is granted no earlier than the window base —
// the forgotten past counts as full, never as free.
func TestSchedulingInPastClamps(t *testing.T) {
	srv := NewServer(1, 8, 16)
	srv.Reserve(10_000, 1)
	base := srv.base
	if base == 0 {
		t.Fatal("window did not slide")
	}
	for _, at := range []Time{0, 1, base - 1} {
		if got := srv.Reserve(at, 1); got < base {
			t.Errorf("request at %d granted at %d, before the window base %d", at, got, base)
		}
	}
}

// TestAdvanceNeverRewinds: the window only moves forward. Requests
// behind it, however old, never slide it back, so the window base is
// monotone over any sequence of reservations.
func TestAdvanceNeverRewinds(t *testing.T) {
	srv := NewServer(1, 4, 16)
	rng := rand.New(rand.NewSource(1))
	prev := srv.base
	for i := 0; i < 2000; i++ {
		srv.Reserve(Time(rng.Intn(20_000)), 1+rng.Intn(8))
		h := srv.base
		if h < prev {
			t.Fatalf("reservation %d moved the window base back from %d to %d", i, prev, h)
		}
		prev = h
	}
}

// refCalendar is the Server's rule without the sliding window: an
// unbounded per-bucket calendar where a request fills the first buckets
// with room at or after its own, starting no earlier than it asked.
type refCalendar struct {
	width     Time
	perBucket int
	used      map[Time]int
}

func (c *refCalendar) reserve(at Time, units int) Time {
	start, first := Time(0), true
	for b := at / c.width; units > 0; b++ {
		free := c.perBucket - c.used[b]
		if free <= 0 {
			continue
		}
		take := min(free, units)
		c.used[b] += take
		units -= take
		if first {
			first = false
			start = MaxTime(at, b*c.width)
		}
	}
	return start
}

// TestDifferentialDeterminism drives the Server and a reference calendar
// with the same random out-of-order requests and requires identical
// grants while the window never has to slide; a second Server fed the
// same stream must grant the same cycles, and so must a pair of small
// servers whose windows slide throughout.
func TestDifferentialDeterminism(t *testing.T) {
	const width, perCycle = 4, 2
	srv, twin := NewServer(perCycle, width, 4096), NewServer(perCycle, width, 4096)
	ref := &refCalendar{width: width, perBucket: perCycle * width, used: map[Time]int{}}
	small, smallTwin := NewServer(perCycle, width, 16), NewServer(perCycle, width, 16)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		at, units := Time(rng.Intn(4000)), 1+rng.Intn(8)
		got := srv.Reserve(at, units)
		if want := ref.reserve(at, units); got != want {
			t.Fatalf("request %d (at %d, %d units): server granted %d, reference %d", i, at, units, got, want)
		}
		if again := twin.Reserve(at, units); again != got {
			t.Fatalf("request %d: twin server granted %d, first granted %d", i, again, got)
		}
		if a, b := small.Reserve(at, units), smallTwin.Reserve(at, units); a != b {
			t.Fatalf("request %d: sliding servers granted %d and %d", i, a, b)
		}
	}
	if srv.base != 0 {
		t.Fatalf("the large window slid to %d; the reference comparison assumed it would not", srv.base)
	}
	if small.base == 0 {
		t.Fatal("the small window never slid")
	}
}

// TestZeroAllocSteadyState pins that Reserve, called for every modelled
// request, allocates nothing — window slides included.
func TestZeroAllocSteadyState(t *testing.T) {
	srv := NewServer(2, 4, 64)
	var at Time
	allocs := testing.AllocsPerRun(1000, func() {
		at += 3
		srv.Reserve(at, 5)
		srv.Reserve(at/2, 1) // out of order, behind the head
	})
	if allocs != 0 {
		t.Errorf("Reserve allocated %.1f times per call pair, want 0", allocs)
	}
	if srv.base == 0 {
		t.Error("window never slid; the slide path went unmeasured")
	}
}
