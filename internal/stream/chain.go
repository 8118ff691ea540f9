package stream

import (
	"affinityalloc/internal/engine"
	"affinityalloc/internal/memsim"
)

// ChainStream executes a sequence of short, independent pointer chains —
// the linked-CSR edge lists of consecutive vertices (§5.3). Within one
// chain the node visits are data-dependent (the next pointer comes from
// the previous node), but separate chains are independent: the stream
// engine runs ahead, overlapping up to a window of chains, which is the
// "decoupled pointer-chasing task" advantage the paper describes over
// in-core chasing.
type ChainStream struct {
	eng      *Engine
	coreTile int

	started bool
	bank    int // current bank (last visited node)
	// chainT is the in-flight chain's dependent time.
	chainT  engine.Time
	inChain bool
	depth   int // nodes visited in the current chain
	// window bounds concurrently outstanding chains.
	window *OpWindow
	finish engine.Time
}

// NewChainStream builds a chain stream issued by coreTile with the given
// overlap window.
func NewChainStream(eng *Engine, coreTile, window int) *ChainStream {
	return &ChainStream{eng: eng, coreTile: coreTile, window: NewOpWindow(window)}
}

// BeginChain starts a new independent chain whose inputs (the head
// pointer) are available at notBefore. It returns the chain's start time
// after flow control.
func (s *ChainStream) BeginChain(notBefore engine.Time) engine.Time {
	if s.inChain {
		s.EndChain()
	}
	s.inChain = true
	s.chainT = s.window.Issue(notBefore)
	return s.chainT
}

// VisitNode reads one chain node. The first node of a chain starts a new
// dependent sequence (its address was known in advance from the head
// array, so reaching its bank is overlapped); subsequent nodes serialize
// on the previous node's load and pay the dependent migration.
func (s *ChainStream) VisitNode(addr memsim.Addr, nodeBytes int) engine.Time {
	nodeBank := s.eng.mem.BankOf(addr)
	if !s.started {
		s.started = true
		s.bank = nodeBank
		s.chainT = engine.MaxTime(s.chainT, s.eng.Offload(s.chainT, s.coreTile, nodeBank))
	} else if nodeBank != s.bank {
		if s.depth == 0 {
			// First node of a chain: its address came from the head
			// array, so the move to its bank is overlapped.
			s.eng.MigrateOverlapped(s.chainT, s.bank, nodeBank)
			s.chainT++
		} else {
			// Mid-chain: the address came from the previous node.
			s.chainT = s.eng.Migrate(s.chainT, s.bank, nodeBank)
		}
		s.bank = nodeBank
	}
	s.depth++
	s.eng.ElementsComputed++

	first := memsim.LineAddr(addr)
	last := memsim.LineAddr(addr + memsim.Addr(nodeBytes) - 1)
	done := s.chainT
	for line := first; line <= last; line += memsim.LineSize {
		d, _ := s.eng.mem.AccessAt(s.chainT, s.bank, line, false)
		done = engine.MaxTime(done, d)
	}
	s.chainT = done + 1
	if s.chainT > s.finish {
		s.finish = s.chainT
	}
	return s.chainT
}

// EndChain completes the in-flight chain, releasing its window slot.
func (s *ChainStream) EndChain() engine.Time {
	if !s.inChain {
		return s.chainT
	}
	s.inChain = false
	s.window.Complete(s.chainT)
	s.depth = 0
	return s.chainT
}

// Bank returns the current bank.
func (s *ChainStream) Bank() int { return s.bank }

// Now returns the in-flight chain's dependent time.
func (s *ChainStream) Now() engine.Time { return s.chainT }

// Finish returns the latest completion observed.
func (s *ChainStream) Finish() engine.Time { return s.finish }
