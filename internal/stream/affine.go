package stream

import (
	"affinityalloc/internal/engine"
	"affinityalloc/internal/memsim"
)

const noLine = ^memsim.Addr(0)

// AffineStream is a load or store stream over a strided element sequence
// (sa = A[0:N] in Fig 2). It executes at the L3 bank holding its current
// cache line, fetching (or writing) one line at a time, migrating between
// banks as the pattern crosses interleaving boundaries, and consuming
// coarse-grained credits from the issuing core.
//
// The stream is pipelined: its local time advances by issue occupancy per
// line, while each line's ready time reflects the full access latency.
type AffineStream struct {
	eng      *Engine
	coreTile int
	base     memsim.Addr
	elemSize int
	stride   int64 // in elements
	count    int64
	write    bool

	started   bool
	t         engine.Time // issue front
	bank      int
	curLine   memsim.Addr
	lineReady engine.Time
	// creditIn counts the elements left before the next credit goes back
	// to the core; it starts below zero when credits are off and then
	// never reaches zero.
	creditIn int64
	finish   engine.Time
	// inflight implements the stream's line window (flow control): slot
	// i holds the completion of the i-th most recent line, and a new
	// line cannot issue until the oldest slot drains.
	inflight []engine.Time
	inIdx    int
}

// NewAffineStream describes a stream over count elements of elemSize
// bytes starting at base with the given element stride, issued by the
// core on coreTile. Set write for store streams.
func NewAffineStream(eng *Engine, coreTile int, base memsim.Addr, elemSize int, stride, count int64, write bool) *AffineStream {
	window := eng.cfg.StreamWindow
	if window < 1 {
		window = 1
	}
	creditIn := int64(eng.cfg.CreditElems)
	if creditIn <= 0 {
		creditIn = -1
	}
	return &AffineStream{
		eng:      eng,
		coreTile: coreTile,
		base:     base,
		elemSize: elemSize,
		stride:   stride,
		count:    count,
		write:    write,
		curLine:  noLine,
		creditIn: creditIn,
		inflight: make([]engine.Time, window),
	}
}

// ElemAddr returns the virtual address of element i.
func (s *AffineStream) ElemAddr(i int64) memsim.Addr {
	return s.base + memsim.Addr(i*s.stride*int64(s.elemSize))
}

// Start offloads the stream: SEcore configures it at the bank of its
// first element. Calling Start more than once is a no-op.
func (s *AffineStream) Start(now engine.Time) {
	if s.started {
		return
	}
	s.started = true
	s.bank = s.eng.mem.BankOf(s.base)
	s.t = s.eng.Offload(now, s.coreTile, s.bank)
	s.finish = s.t
}

// AddrReady advances the stream to the element at addr and returns the
// bank where it materializes and its ready cycle. This is the
// address-driven variant of ElemReady for callers whose index-to-address
// mapping is richer than the stream's base/stride (e.g. rotated or
// clamped stencil walks); the stream still tracks lines, migration,
// credits and flow control identically.
func (s *AffineStream) AddrReady(addr memsim.Addr, notBefore engine.Time) (bank int, ready engine.Time) {
	if !s.started {
		s.Start(notBefore)
	}
	line := memsim.LineAddr(addr)
	if line != s.curLine {
		s.fetchLine(line, notBefore)
	}
	if s.creditIn--; s.creditIn == 0 {
		s.credit()
	}
	ready = engine.MaxTime(s.lineReady, notBefore)
	if ready > s.finish {
		s.finish = ready
	}
	return s.bank, ready
}

// fetchLine moves the stream to a new line: migrating banks if the line
// is homed elsewhere, applying the in-flight window, and issuing the L3
// access.
func (s *AffineStream) fetchLine(line memsim.Addr, notBefore engine.Time) {
	s.curLine = line
	newBank := s.eng.mem.BankOf(line)
	if newBank != s.bank {
		s.eng.MigrateOverlapped(s.t, s.bank, newBank)
		s.bank = newBank
		s.t++
	}
	start := engine.MaxTime(s.t, notBefore)
	// Flow control: wait for the oldest in-flight line to drain.
	start = engine.MaxTime(start, s.inflight[s.inIdx])
	done, _ := s.eng.mem.AccessAt(start, s.bank, line, s.write)
	s.inflight[s.inIdx] = done
	if s.inIdx++; s.inIdx == len(s.inflight) {
		s.inIdx = 0
	}
	s.t = start + 1 // pipelined issue; bank occupancy is inside AccessAt
	s.lineReady = done
}

// credit returns one credit to the issuing core, which AddrReady and
// ElemReady do when the countdown reaches zero, and restarts the
// countdown.
func (s *AffineStream) credit() {
	s.creditIn = int64(s.eng.cfg.CreditElems)
	s.eng.Credit(s.t, s.coreTile, s.bank)
}

// ElemReady advances the stream to element i and returns the bank where
// the element materializes and the cycle its value (load) or slot (store)
// is ready. For stores, notBefore carries the dependency on forwarded
// operands and computation; the line write is issued no earlier.
// Elements must be visited in nondecreasing order.
func (s *AffineStream) ElemReady(i int64, notBefore engine.Time) (bank int, ready engine.Time) {
	if !s.started {
		s.Start(notBefore)
	}
	line := memsim.LineAddr(s.ElemAddr(i))
	if line != s.curLine {
		s.fetchLine(line, notBefore)
	}
	if s.creditIn--; s.creditIn == 0 {
		s.credit()
	}
	ready = engine.MaxTime(s.lineReady, notBefore)
	if ready > s.finish {
		s.finish = ready
	}
	return s.bank, ready
}

// Finish returns the latest ready time the stream has produced — its
// completion when all elements have been visited.
func (s *AffineStream) Finish() engine.Time { return s.finish }
