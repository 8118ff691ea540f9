package stream

import (
	"affinityalloc/internal/engine"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/noc"
)

// ChaseStream is a pointer-chasing stream (sp = sp.nxt in Fig 2b): it
// lives at the bank of the node it is visiting, migrates to the next
// node's bank, and serializes on each node's load because the next
// address is data-dependent. Affinity placement shrinks exactly this
// migration distance.
type ChaseStream struct {
	eng      *Engine
	coreTile int

	started bool
	bank    int
	t       engine.Time
	visits  uint64
}

// NewChaseStream builds a pointer-chasing stream issued by coreTile.
func NewChaseStream(eng *Engine, coreTile int) *ChaseStream {
	return &ChaseStream{eng: eng, coreTile: coreTile}
}

// Start offloads the stream to the bank of the first node.
func (s *ChaseStream) Start(now engine.Time, first memsim.Addr) {
	if s.started {
		return
	}
	s.started = true
	s.bank = s.eng.mem.BankOf(first)
	s.t = s.eng.Offload(now, s.coreTile, s.bank)
}

// Visit models loading one node of nodeBytes at addr: migrate to the
// node's bank if needed, read its line(s), and charge one comparison. It
// returns the cycle the node's fields are available, which is also the
// stream's new local time (the chain is dependent).
func (s *ChaseStream) Visit(addr memsim.Addr, nodeBytes int) engine.Time {
	if !s.started {
		s.Start(s.t, addr)
	}
	s.visits++
	newBank := s.eng.mem.BankOf(addr)
	if newBank != s.bank {
		s.t = s.eng.Migrate(s.t, s.bank, newBank)
		s.bank = newBank
	}
	// Touch every line the node spans (nodes are small; usually one).
	first := memsim.LineAddr(addr)
	last := memsim.LineAddr(addr + memsim.Addr(nodeBytes) - 1)
	done := s.t
	for line := first; line <= last; line += memsim.LineSize {
		d, _ := s.eng.mem.AccessAt(s.t, s.bank, line, false)
		done = engine.MaxTime(done, d)
	}
	s.t = done + 1 // the SEL3 comparison / field extraction
	return s.t
}

// Visits returns how many nodes the stream has visited.
func (s *ChaseStream) Visits() uint64 { return s.visits }

// Terminate returns the final value to the issuing core and reports the
// arrival cycle.
func (s *ChaseStream) Terminate() engine.Time {
	if !s.started {
		return s.t
	}
	return s.eng.net.Send(s.t, s.bank, s.coreTile, noc.Control, s.eng.cfg.AckBytes)
}
