package engine

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Server models a pipelined shared resource with fixed capacity per
// cycle — an L3 bank port, a NoC link, a DRAM channel, a compute thread
// pool. Capacity is tracked in coarse time buckets over a sliding window,
// and a reservation takes the earliest available capacity at or after its
// requested time.
//
// Unlike a scalar busy-until timestamp, this admits out-of-order
// reservations: the simulator processes actors round-robin, so a request
// with an early timestamp may be simulated after one with a late
// timestamp, and it must still be able to claim the idle capacity in
// between. A scalar would serialize them in simulation order and
// propagate phantom queueing delays across the whole machine.
//
// The window is a circular buffer of per-bucket counts, taken from a
// pool on the first Reserve: most of a machine's servers are never
// touched in a run, and those cost no window at all.
//
// A Server must not be copied. NewServer builds one on the heap; Init
// builds one in place, so a machine holds each kind of server by value
// in one slice.
type Server struct {
	_         noCopy
	width     Time // cycles per bucket, a power of two
	widthLog  uint // log2(width)
	perBucket int  // capacity units per bucket
	buckets   int  // window length in buckets
	// win holds the window's storage while the server owns it; ring is
	// *win. Both are nil before the first Reserve. After Release win is
	// nil and ring is empty, so a later Reserve panics instead of quietly
	// starting a new schedule.
	win  *[]uint16
	ring []uint16
	head int  // ring index of the bucket that starts at base
	base Time // time of the window's first bucket
	// baseBucket is base/width: the absolute number of the window's
	// first bucket. Reserve maps a time to its absolute bucket with one
	// shift and never divides.
	baseBucket Time
	// [runLo, runHi) is one stretch of absolute buckets known to be
	// full. Between slides buckets only fill, and a slide clears only
	// buckets below the new base, so the stretch stays full until it
	// falls behind the window; a request landing inside it starts
	// scanning at runHi.
	runLo, runHi Time
}

// noCopy lets go vet's copylocks check flag a Server copied by value:
// the copy would share the original's window.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// NewServer builds a resource with unitsPerCycle capacity, bucketed at
// width cycles, remembering windowBuckets of schedule. The width must be
// a power of two (every machine server is 8 or 16 cycles wide), so a
// time finds its bucket by a shift. A bucket's capacity,
// unitsPerCycle·width, must fit the window's uint16 counts; callers
// bound it (sys.Config.Validate caps the stream engine's threads). A
// width that is not a power of two, or a capacity that overflows, is a
// programmer error and panics.
func NewServer(unitsPerCycle int, width Time, windowBuckets int) *Server {
	s := new(Server)
	s.Init(unitsPerCycle, width, windowBuckets)
	return s
}

// Init makes s the server NewServer(unitsPerCycle, width, windowBuckets)
// would return, in place. s must be zero or released.
func (s *Server) Init(unitsPerCycle int, width Time, windowBuckets int) {
	// Capacity below one unit/cycle would make perBucket zero and any
	// Reserve spin forever hunting for free capacity; clamp like width
	// and windowBuckets.
	if unitsPerCycle < 1 {
		unitsPerCycle = 1
	}
	if width < 1 {
		width = 1
	}
	if windowBuckets < 4 {
		windowBuckets = 4
	}
	if width&(width-1) != 0 {
		panic(fmt.Sprintf("engine: a %d-cycle bucket is not a power of two (programmer error)", width))
	}
	if width > math.MaxUint16 || unitsPerCycle > math.MaxUint16/int(width) {
		panic(fmt.Sprintf("engine: %d units/cycle × %d-cycle buckets overflows a window count (programmer error)", unitsPerCycle, width))
	}
	*s = Server{
		width:     width,
		widthLog:  uint(bits.TrailingZeros64(uint64(width))),
		perBucket: unitsPerCycle * int(width),
		buckets:   windowBuckets,
	}
}

// windowPools holds one *sync.Pool of *[]uint16 per window length.
var windowPools sync.Map

func windowPool(n int) *sync.Pool {
	if p, ok := windowPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := windowPools.LoadOrStore(n, &sync.Pool{New: func() any {
		w := make([]uint16, n)
		return &w
	}})
	return p.(*sync.Pool)
}

// Release hands the server's window back for another server to reuse.
// The server must not reserve afterwards. Releasing twice, or releasing
// a server that never reserved anything, puts nothing into the pool.
func (s *Server) Release() {
	if s.win != nil {
		windowPool(s.buckets).Put(s.win)
		s.win = nil
	}
	s.ring = []uint16{}
}

// slide advances the window so bucket index b (relative to base) fits,
// dropping the oldest schedule.
func (s *Server) slide(b int) int {
	n := s.buckets
	// Keep the target at 3/4 of the window so there is room ahead.
	shift := b - (3*n)/4
	if shift <= 0 {
		return b
	}
	if shift >= n {
		clear(s.ring) // every rotation of an empty window is the same window
	} else {
		// Clear the dropped buckets; they become the window's tail.
		end := s.head + shift
		if end < n {
			clear(s.ring[s.head:end])
		} else {
			clear(s.ring[s.head:])
			end -= n
			clear(s.ring[:end])
		}
		s.head = end
	}
	s.base += Time(shift) * s.width
	s.baseBucket += Time(shift)
	return b - shift
}

// Reserve claims `units` of capacity at the earliest time >= at,
// returning when service begins. Units spill into later buckets when a
// bucket fills, modeling queueing under sustained overload.
func (s *Server) Reserve(at Time, units int) Time {
	if units <= 0 {
		return at
	}
	if s.ring == nil {
		s.win = windowPool(s.buckets).Get().(*[]uint16)
		s.ring = *s.win
		clear(s.ring)
	}
	abs := max(at>>s.widthLog, s.baseBucket) // older than the window: clamp (the past is full)
	if abs >= s.runLo && abs < s.runHi {
		abs = s.runHi // every bucket before runHi is full
	}
	n, per := s.buckets, s.perBucket
	// Service starts in the first bucket with room at or after abs.
	b := int(abs - s.baseBucket)
	var i, free int
	for {
		if b >= n {
			b = s.slide(b)
		}
		if i = s.head + b; i >= n {
			i -= n
		}
		if free = per - int(s.ring[i]); free > 0 {
			break
		}
		b++
	}
	start := max(at, s.base+Time(b)*s.width)
	// Fill buckets from there until the units fit.
	for units > free {
		s.ring[i] = uint16(per)
		units -= free
		if b++; b >= n {
			b = s.slide(b)
		}
		if i = s.head + b; i >= n {
			i -= n
		}
		free = per - int(s.ring[i])
	}
	s.ring[i] += uint16(units)
	if units == free {
		b++ // the last bucket filled up too
	}
	s.noteFull(abs, s.baseBucket+Time(b))
	return start
}

// noteFull records that the absolute buckets [lo, hi) are full. It
// joins them to the remembered run when the two touch; otherwise the
// new stretch replaces the run, since the next request most likely
// lands where the last one queued.
func (s *Server) noteFull(lo, hi Time) {
	if hi <= lo {
		return
	}
	if lo <= s.runHi && hi >= s.runLo {
		s.runLo = min(s.runLo, lo)
		s.runHi = max(s.runHi, hi)
	} else {
		s.runLo, s.runHi = lo, hi
	}
}
