package core

import (
	"fmt"

	"affinityalloc/internal/memsim"
)

// AllocNear allocates `size` bytes close to the given affinity addresses —
// the irregular-layout API of Fig 10 (`malloc_aff(size, n, aff_addrs)`).
// The size is rounded up to a supported interleaving so the object owns a
// whole placement unit; the bank is chosen by the configured policy
// (§5.2); and the chunk comes from that bank's free list, expanding the
// pool when the list runs dry. The runtime keeps no per-object metadata —
// an object's size is implied by the pool it lives in.
func (r *Runtime) AllocNear(size int64, affinity []memsim.Addr) (memsim.Addr, error) {
	top := r.obsEnter()
	addr, err := r.allocNear(size, affinity)
	if top {
		r.obs.ObserveNear(size, affinity, -1, addr, r.chunks[addr], err)
	}
	r.obsExit()
	return addr, err
}

func (r *Runtime) allocNear(size int64, affinity []memsim.Addr) (memsim.Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("core: invalid irregular size %d", size)
	}
	if len(affinity) > MaxAffinityAddrs {
		// The API contract (§5.1): callers sample; the runtime refuses
		// rather than silently truncating.
		return 0, fmt.Errorf("core: %d affinity addresses exceeds the %d cap", len(affinity), MaxAffinityAddrs)
	}
	chunk := roundUpPow2(size)
	if chunk < memsim.MinInterleave {
		chunk = memsim.MinInterleave
	}
	if chunk > memsim.MaxInterleave {
		return 0, fmt.Errorf("core: irregular size %d exceeds max chunk %d", size, memsim.MaxInterleave)
	}
	bank := r.selectBank(affinity)
	addr, err := r.takeChunk(int(chunk), bank)
	if err != nil {
		return 0, err
	}
	r.Stats.IrregularAllocs++
	r.chunks[addr] = int(chunk)
	r.load[bank]++
	r.totalLoad++
	return addr, nil
}

// AllocAtBank allocates a chunk of `size` bytes at an explicitly chosen
// bank, bypassing the bank-selection policy. This is the oracle hook the
// Fig-6 idealized chunk-placement study uses; real applications go
// through AllocNear.
func (r *Runtime) AllocAtBank(size int64, bank int) (memsim.Addr, error) {
	top := r.obsEnter()
	addr, err := r.allocAtBank(size, bank)
	if top {
		r.obs.ObserveNear(size, nil, bank, addr, r.chunks[addr], err)
	}
	r.obsExit()
	return addr, err
}

func (r *Runtime) allocAtBank(size int64, bank int) (memsim.Addr, error) {
	if bank < 0 || bank >= r.mesh.Banks() {
		return 0, fmt.Errorf("core: bank %d out of range", bank)
	}
	chunk := roundUpPow2(size)
	if chunk < memsim.MinInterleave {
		chunk = memsim.MinInterleave
	}
	if chunk > memsim.MaxInterleave {
		return 0, fmt.Errorf("core: size %d exceeds max chunk %d", size, memsim.MaxInterleave)
	}
	addr, err := r.takeChunk(int(chunk), bank)
	if err != nil {
		return 0, err
	}
	r.Stats.IrregularAllocs++
	r.chunks[addr] = int(chunk)
	r.load[bank]++
	r.totalLoad++
	return addr, nil
}

// selectBank applies the configured bank-selection policy. When fault
// injection has disabled banks, every policy restricts itself to the
// survivors — the degraded bank map the space reports — so placement
// re-evaluates against the machine that actually exists. On a clean
// machine the RNG draw sequence is exactly the historical one (no extra
// draws), keeping un-faulted runs byte-identical.
func (r *Runtime) selectBank(affinity []memsim.Addr) int {
	nb := r.mesh.Banks()
	alive := r.space.AliveBanks() // nil when every bank is alive
	switch r.pcfg.Policy {
	case Rnd:
		if alive == nil {
			return r.rng.Intn(nb)
		}
		return alive[r.rng.Intn(len(alive))]
	case Lnr:
		b := r.lnrNext
		for alive != nil && !r.space.BankAlive(b) {
			b = (b + 1) % nb
		}
		r.lnrNext = (b + 1) % nb
		return b
	}

	// With no affinity information, MinHop has no preference: fall back
	// to a random bank rather than a degenerate constant choice (Hybrid
	// still uses its load term, which spreads allocations on its own).
	if len(affinity) == 0 && r.pcfg.Policy == MinHop {
		if alive == nil {
			return r.rng.Intn(nb)
		}
		return alive[r.rng.Intn(len(alive))]
	}

	// MinHop and Hybrid score every bank with Eq. 4. Collapse affinity
	// addresses to distinct banks with multiplicities first, into
	// scratch the runtime keeps between calls.
	affBanks, affCounts := r.affBanks[:0], r.affCounts[:0]
	for _, a := range affinity {
		b := r.space.MustBank(a)
		found := false
		for i, e := range affBanks {
			if e == b {
				affCounts[i]++
				found = true
				break
			}
		}
		if !found {
			affBanks = append(affBanks, b)
			affCounts = append(affCounts, 1)
		}
	}
	r.affBanks, r.affCounts = affBanks, affCounts
	h := 0.0
	if r.pcfg.Policy == Hybrid {
		h = r.pcfg.H
	}
	best, bestScore, first := 0, 0.0, true
	for b := 0; b < nb; b++ {
		if alive != nil && !r.space.BankAlive(b) {
			continue
		}
		s := r.scoreBank(b, affBanks, affCounts, len(affinity), h)
		if first || s < bestScore {
			best, bestScore, first = b, s, false
		}
	}
	return best
}

// chunkLists returns (creating if needed) the per-bank free lists for an
// interleaving.
func (r *Runtime) chunkLists(chunk int) [][]memsim.Addr {
	lists := r.freeChunks[chunk]
	if lists == nil {
		lists = make([][]memsim.Addr, r.mesh.Banks())
		r.freeChunks[chunk] = lists
	}
	return lists
}

// takeChunk pops a free chunk of the given interleaving homed at bank,
// refilling from the OS when empty.
func (r *Runtime) takeChunk(chunk, bank int) (memsim.Addr, error) {
	lists := r.chunkLists(chunk)
	if len(lists[bank]) == 0 {
		if err := r.refillChunks(chunk); err != nil {
			return 0, err
		}
		lists = r.chunkLists(chunk)
		if len(lists[bank]) == 0 {
			return 0, fmt.Errorf("core: refill produced no chunks for bank %d", bank)
		}
	}
	lst := lists[bank]
	addr := lst[len(lst)-1]
	lists[bank] = lst[:len(lst)-1]
	return addr, nil
}

// refillSlabsPerBank controls how many chunks per bank each pool
// expansion yields; larger slabs amortize syscalls.
const refillSlabsPerBank = 8

// refillChunks expands the pool by a slab and distributes its chunks to
// per-bank free lists by phase. First, any freed affine extents in the
// same pool are carved into chunks — the fragmentation-mitigation path of
// §8 (freed space is reusable by allocations with the same interleaving).
func (r *Runtime) refillChunks(chunk int) error {
	pool, err := r.space.Pool(chunk)
	if err != nil {
		return err
	}
	nb := r.mesh.Banks()
	lists := r.chunkLists(chunk)
	pushRange := func(start memsim.Addr, size int64) {
		base := (start + memsim.Addr(chunk) - 1) / memsim.Addr(chunk) * memsim.Addr(chunk)
		for int64(base-start)+int64(chunk) <= size {
			bank := int((base - pool.Start) / memsim.Addr(chunk) % memsim.Addr(nb))
			lists[bank] = append(lists[bank], base)
			base += memsim.Addr(chunk)
		}
	}

	// Reclaim freed affine extents first.
	if ranges := r.freeRanges[chunk]; len(ranges) > 0 {
		for _, fr := range ranges {
			pushRange(fr.start, fr.size)
		}
		delete(r.freeRanges, chunk)
		// Only count as a refill if something materialized.
		total := 0
		for b := 0; b < nb; b++ {
			total += len(lists[b])
		}
		if total > 0 {
			r.Stats.PoolRefills++
			return nil
		}
	}

	slab := int64(nb) * int64(chunk) * refillSlabsPerBank
	base, err := r.space.ExpandPool(chunk, memsim.Addr(slab))
	if err != nil {
		return err
	}
	// ExpandPool page-rounds; use the full extent granted.
	granted := roundUp(slab, memsim.PageSize)
	pushRange(base, granted)
	r.Stats.PoolRefills++
	return nil
}

// Free releases memory allocated by AllocAffine, AllocAffineAtBank or
// AllocNear — the single free_aff(void*) entry point of §5.1. Affine
// arrays are distinguished from irregular chunks by the runtime's array
// metadata; irregular chunks carry no metadata and their size is inferred
// from the pool they live in.
func (r *Runtime) Free(addr memsim.Addr) error {
	top := r.obsEnter()
	err := r.free(addr)
	if top {
		r.obs.ObserveFree(addr, err)
	}
	r.obsExit()
	return err
}

func (r *Runtime) free(addr memsim.Addr) error {
	if info, ok := r.arrays[addr]; ok {
		delete(r.arrays, addr)
		r.Stats.Frees++
		switch {
		case info.Interleave == 0:
			// Baseline allocation: back on the size-class list.
			size := roundUp(info.Bytes(), memsim.LineSize)
			r.baseFree[size] = append(r.baseFree[size], addr)
		case info.PageMapped:
			// Page-mapped extents are not currently recycled (the
			// paper's static workloads never free them); dropping the
			// metadata is sufficient for correctness.
		default:
			r.freeRanges[info.Interleave] = append(r.freeRanges[info.Interleave], addrRange{start: addr, size: info.Bytes()})
		}
		return nil
	}
	if chunk, ok := r.chunks[addr]; ok {
		delete(r.chunks, addr)
		r.Stats.Frees++
		bank := r.space.MustBank(addr)
		lists := r.chunkLists(chunk)
		lists[bank] = append(lists[bank], addr)
		r.load[bank]--
		r.totalLoad--
		return nil
	}
	return fmt.Errorf("core: Free(%#x): not an affinity allocation", uint64(addr))
}
