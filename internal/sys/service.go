package sys

import "affinityalloc/internal/memsim"

// This file is the service-parity surface of System: everything a
// placement server (internal/affinityd) needs to answer wire requests is
// reachable through System itself — Alloc for affine specs (mode-aware),
// AllocNear for the irregular API, Free for the single release entry
// point, BankOf/OpenPool for placement introspection — so the wire API
// and the library API cannot drift apart.

// AllocNear allocates size bytes close to the given affinity addresses —
// the irregular-layout API of Fig 10 — through the affinity runtime.
// Unlike Alloc it has no mode axis: the baselines have no notion of
// placement hints, so irregular requests always go to the runtime.
func (s *System) AllocNear(size int64, affinity []memsim.Addr) (memsim.Addr, error) {
	return s.RT.AllocNear(size, affinity)
}

// Free releases memory allocated by Alloc (in AffAlloc mode) or
// AllocNear — the single free_aff entry point of §5.1.
func (s *System) Free(addr memsim.Addr) error {
	return s.RT.Free(addr)
}

// BankOf returns the L3 bank holding an allocated address.
func (s *System) BankOf(addr memsim.Addr) int {
	return s.RT.BankOf(addr)
}

// OpenPool ensures the interleave pool exists (see core.Runtime.OpenPool).
func (s *System) OpenPool(interleave int) (*memsim.Pool, error) {
	return s.RT.OpenPool(interleave)
}
