package engine

import (
	"fmt"
	"math"
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
type Server struct {
	width     Time // cycles per bucket
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
}

// NewServer builds a resource with unitsPerCycle capacity, bucketed at
// width cycles, remembering windowBuckets of schedule. A bucket's
// capacity, unitsPerCycle·width, must fit the window's uint16 counts;
// callers bound it (sys.Config.Validate caps the stream engine's
// threads), so overflow here is a programmer error and panics.
func NewServer(unitsPerCycle int, width Time, windowBuckets int) *Server {
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
	if width > math.MaxUint16 || unitsPerCycle > math.MaxUint16/int(width) {
		panic(fmt.Sprintf("engine: %d units/cycle × %d-cycle buckets overflows a window count (programmer error)", unitsPerCycle, width))
	}
	return &Server{
		width:     width,
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
	if at < s.base {
		at = s.base // older than the window: clamp (the past is full)
	}
	b := int((at - s.base) / s.width)
	if b >= s.buckets {
		b = s.slide(b)
	}
	start := Time(0)
	first := true
	for units > 0 {
		if b >= s.buckets {
			b = s.slide(b)
		}
		i := s.head + b
		if i >= s.buckets {
			i -= s.buckets
		}
		free := s.perBucket - int(s.ring[i])
		if free > 0 {
			take := free
			if take > units {
				take = units
			}
			s.ring[i] += uint16(take)
			units -= take
			if first {
				first = false
				start = s.base + Time(b)*s.width
				if at > start {
					start = at
				}
			}
		}
		b++
	}
	return start
}
