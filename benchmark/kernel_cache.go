package main

import (
	"fmt"
	"math/rand"
	"time"

	"affinityalloc/internal/core"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/stream"
	"affinityalloc/internal/sys"
)

// kernelCache times cache.MemSystem.Access on its two regimes: resident
// sequential lines (all hits, bank-queue bound) and seeded lines over a
// footprint four times the L3 (misses, DRAM and NoC round trips).
func kernelCache(r *result, seed int64, sz sizing) error {
	var seq, random []float64
	for round := 0; round < sz.KernelRounds; round++ {
		ns, err := cacheRound(seed, sz.KernelN/4, false)
		if err != nil {
			return err
		}
		seq = append(seq, ns)
		if ns, err = cacheRound(seed, sz.KernelN/4, true); err != nil {
			return err
		}
		random = append(random, ns)
	}
	r.Values["cache.access_ns.stream"] = median(seq)
	r.Values["cache.access_ns.random"] = median(random)
	return nil
}

// cacheRound makes n line accesses through a 12-deep operation window
// on a fresh system and returns host ns per access.
func cacheRound(seed, n int64, random bool) (float64, error) {
	s, err := newSystem(seed)
	if err != nil {
		return 0, err
	}
	lines := n
	if random {
		l3 := int64(s.Cfg.MemSys.BankSizeBytes) * int64(len(s.Cores))
		lines = 4 * l3 / memsim.LineSize
	}
	mode := sys.AffAlloc
	if random {
		mode = sys.NearL3 // the conventional heap: randomised pages
	}
	a, err := s.Alloc(mode, core.AffineSpec{ElemSize: memsim.LineSize, NumElem: lines})
	if err != nil {
		return 0, err
	}
	addr := make([]memsim.Addr, n)
	if random {
		rng := rand.New(rand.NewSource(seed))
		for i := range addr {
			addr[i] = a.ElemAddr(rng.Int63n(lines))
		}
	} else {
		s.Mem.Preload(a.Base, a.Bytes())
		for i := range addr {
			addr[i] = a.ElemAddr(int64(i))
		}
	}
	win := stream.NewOpWindow(opWindowDepth)
	hits := 0
	t0 := time.Now()
	for i, va := range addr {
		done, hit := s.Mem.Access(win.Issue(engine.Time(i)), va, false)
		win.Complete(done)
		if hit {
			hits++
		}
	}
	d := time.Since(t0)
	if !random && int64(hits) != n {
		return 0, fmt.Errorf("%d of %d accesses to preloaded lines hit", hits, n)
	}
	return float64(d) / float64(n), nil
}
