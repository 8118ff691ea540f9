package stream

import (
	"testing"

	"affinityalloc/internal/cache"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/noc"
	"affinityalloc/internal/topo"
)

func newEngine(t *testing.T) (*Engine, *memsim.Space) {
	t.Helper()
	space := memsim.MustSpace(memsim.DefaultConfig())
	mesh := topo.MustMesh(8, 8, topo.RowMajor)
	net := noc.New(mesh, noc.DefaultConfig())
	mem, err := cache.NewMemSystem(space, net, cache.DefaultMemSysConfig())
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(mem, DefaultConfig()), space
}

func poolArray(t *testing.T, space *memsim.Space, interleave int, bytes int64) memsim.Addr {
	t.Helper()
	base, err := space.ExpandPool(interleave, memsim.Addr(bytes))
	if err != nil {
		t.Fatal(err)
	}
	return base
}

func TestAffineStreamPipelines(t *testing.T) {
	eng, space := newEngine(t)
	base := poolArray(t, space, 64, 1<<16)
	eng.Mem().Preload(base, 1<<16)
	s := NewAffineStream(eng, 0, base, 4, 1, 1<<14, false)
	s.Start(0)
	var first, last engine.Time
	for i := int64(0); i < 1<<14; i += 16 {
		_, ready := s.ElemReady(i, 0)
		if i == 0 {
			first = ready
		}
		last = ready
	}
	lines := int64(1 << 14 / 16)
	perLine := float64(last-first) / float64(lines)
	// Pipelined: amortized cost well below the 20-cycle hit latency.
	if perLine > 5 {
		t.Errorf("%.2f cycles/line, want pipelined (<5)", perLine)
	}
	if s.Finish() != last {
		t.Errorf("Finish %d != last ready %d", s.Finish(), last)
	}
}

func TestAffineStreamMigrationTraffic(t *testing.T) {
	eng, space := newEngine(t)
	base := poolArray(t, space, 64, 1<<12)
	eng.Mem().Preload(base, 1<<12)
	s := NewAffineStream(eng, 0, base, 4, 1, 1<<10, false)
	s.Start(0)
	for i := int64(0); i < 1<<10; i += 16 {
		s.ElemReady(i, 0)
	}
	// 64 lines at 64B interleave: a migration per line after the first.
	if eng.Migrations != 63 {
		t.Errorf("migrations %d, want 63", eng.Migrations)
	}
	// Same array at 4kB interleave: one bank, no migrations.
	eng2, space2 := newEngine(t)
	base2 := poolArray(t, space2, 4096, 1<<12)
	eng2.Mem().Preload(base2, 1<<12)
	s2 := NewAffineStream(eng2, 0, base2, 4, 1, 1<<10, false)
	s2.Start(0)
	for i := int64(0); i < 1<<10; i += 16 {
		s2.ElemReady(i, 0)
	}
	if eng2.Migrations != 0 {
		t.Errorf("single-bank stream migrated %d times", eng2.Migrations)
	}
}

func TestAffineStreamWindowThrottles(t *testing.T) {
	eng, space := newEngine(t)
	base := poolArray(t, space, 64, 1<<12)
	// NOT preloaded: every line misses to DRAM, so throughput must be
	// bounded by window/latency, not issue rate.
	s := NewAffineStream(eng, 0, base, 4, 1, 1<<10, false)
	s.Start(0)
	var last engine.Time
	for i := int64(0); i < 1<<10; i += 16 {
		_, last = s.ElemReady(i, 0)
	}
	// 64 missing lines with ~150-cycle misses and an 8-line window:
	// must take >64*150/8 = 1200 cycles.
	if last < 1000 {
		t.Errorf("missing-line stream finished at %d — window not throttling", last)
	}
}

func TestChaseStreamSerializes(t *testing.T) {
	eng, space := newEngine(t)
	base := poolArray(t, space, 64, 1<<12)
	eng.Mem().Preload(base, 1<<12)
	ch := NewChaseStream(eng, 0)
	ch.Start(0, base)
	var prev engine.Time
	for i := 0; i < 16; i++ {
		done := ch.Visit(base+memsim.Addr(i*64), 16)
		if done <= prev {
			t.Fatalf("visit %d completed at %d, not after %d", i, done, prev)
		}
		if done-prev < 20 && i > 0 {
			t.Fatalf("visit %d took %d cycles — dependent chain must pay full latency", i, done-prev)
		}
		prev = done
	}
	if ch.Visits() != 16 {
		t.Errorf("visits %d", ch.Visits())
	}
	if term := ch.Terminate(); term < prev {
		t.Error("terminate before last visit")
	}
}

func TestChainStreamOverlapsChains(t *testing.T) {
	eng, space := newEngine(t)
	base := poolArray(t, space, 64, 1<<14)
	eng.Mem().Preload(base, 1<<14)

	// Serial baseline: one chase stream visiting 64 nodes.
	chase := NewChaseStream(eng, 0)
	chase.Start(0, base)
	var serialEnd engine.Time
	for i := 0; i < 64; i++ {
		serialEnd = chase.Visit(base+memsim.Addr(i*64), 64)
	}

	// Chain stream: the same 64 nodes as 64 independent chains.
	eng2, space2 := newEngine(t)
	base2 := poolArray(t, space2, 64, 1<<14)
	eng2.Mem().Preload(base2, 1<<14)
	cs := NewChainStream(eng2, 0, 8)
	for i := 0; i < 64; i++ {
		cs.BeginChain(0)
		cs.VisitNode(base2+memsim.Addr(i*64), 64)
		cs.EndChain()
	}
	if cs.Finish() >= serialEnd {
		t.Errorf("chain stream (%d) no faster than serial chase (%d)", cs.Finish(), serialEnd)
	}
}

func TestRemoteOpLocalVsRemote(t *testing.T) {
	eng, space := newEngine(t)
	base := poolArray(t, space, 64, 1<<12)
	eng.Mem().Preload(base, 1<<12)
	target := base // bank 0
	localDone, bank := eng.RemoteOp(0, 0, target, true, false)
	if bank != 0 {
		t.Fatalf("home bank %d, want 0", bank)
	}
	eng2, space2 := newEngine(t)
	base2 := poolArray(t, space2, 64, 1<<12)
	eng2.Mem().Preload(base2, 1<<12)
	remoteDone, _ := eng2.RemoteOp(0, 63, base2, true, false)
	if remoteDone <= localDone {
		t.Errorf("remote op (%d) not slower than local (%d)", remoteDone, localDone)
	}
	// Responses add the return trip.
	eng3, space3 := newEngine(t)
	base3 := poolArray(t, space3, 64, 1<<12)
	eng3.Mem().Preload(base3, 1<<12)
	respDone, _ := eng3.RemoteOp(0, 63, base3, true, true)
	if respDone <= remoteDone {
		t.Errorf("with-response op (%d) not slower than fire-and-forget (%d)", respDone, remoteDone)
	}
}

func TestAtomicSamplerObservesOps(t *testing.T) {
	eng, space := newEngine(t)
	base := poolArray(t, space, 64, 1<<12)
	eng.Mem().Preload(base, 1<<12)
	var seen []int
	eng.SetAtomicSampler(func(bank int, _ engine.Time) { seen = append(seen, bank) })
	eng.RemoteOp(0, 5, base, true, false)    // bank 0
	eng.RemoteOp(0, 5, base+64, true, false) // bank 1
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Errorf("sampler saw %v", seen)
	}
}

func TestComputeQueuesOnHotBank(t *testing.T) {
	eng, _ := newEngine(t)
	// Saturate bank 0's two SMT threads.
	var last engine.Time
	for i := 0; i < 64; i++ {
		last = eng.Compute(0, 0, 16)
	}
	// 64 single-cycle groups over 2 threads ≈ 32 cycles + init.
	if last < 25 {
		t.Errorf("hot-bank compute finished at %d, want queued to >=25", last)
	}
	if eng.ElementsComputed != 64*16 {
		t.Errorf("elements computed %d", eng.ElementsComputed)
	}
	// An idle bank is unaffected.
	if done := eng.Compute(0, 5, 16); done > 10 {
		t.Errorf("idle bank compute at %d", done)
	}
}

func TestOpWindowBoundsOutstanding(t *testing.T) {
	w := NewOpWindow(4)
	// Fill 4 slots completing at 100.
	for i := 0; i < 4; i++ {
		if at := w.Issue(0); at != 0 {
			t.Fatalf("slot %d issued at %d", i, at)
		}
		w.Complete(100)
	}
	// Fifth must wait for the oldest completion.
	if at := w.Issue(0); at != 100 {
		t.Errorf("fifth op issued at %d, want 100", at)
	}
}

func TestOffloadAndCreditTraffic(t *testing.T) {
	eng, _ := newEngine(t)
	net := eng.Mem().Net()
	eng.Offload(0, 0, 63)
	if eng.StreamsConfigured != 1 {
		t.Error("offload not counted")
	}
	if net.Stats()[noc.Offload].FlitHops == 0 {
		t.Error("offload produced no traffic")
	}
	eng.Credit(0, 0, 63)
	if net.Stats()[noc.Control].FlitHops == 0 {
		t.Error("credit produced no control traffic")
	}
}

// TestAffineStreamCredits pins the coarse-grained flow control: a stream
// over n elements sends the core ⌊n / CreditElems⌋ credits, one Control
// message each, and none when CreditElems is 0. The array is preloaded,
// so no miss adds Control traffic of its own; both the index-driven and
// the address-driven walks count.
func TestAffineStreamCredits(t *testing.T) {
	for _, credit := range []int{0, 1, 3, 1024} {
		for _, n := range []int64{0, 1, 2, 3, 1023, 1024, 1025, 3072, 5000} {
			space := memsim.MustSpace(memsim.DefaultConfig())
			net := noc.New(topo.MustMesh(8, 8, topo.RowMajor), noc.DefaultConfig())
			mem, err := cache.NewMemSystem(space, net, cache.DefaultMemSysConfig())
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.CreditElems = credit
			eng := NewEngine(mem, cfg)
			bytes := max(n, 1) * 4
			base := poolArray(t, space, 64, bytes)
			mem.Preload(base, bytes)

			byIndex := NewAffineStream(eng, 9, base, 4, 1, n, false)
			byAddr := NewAffineStream(eng, 9, base, 4, 1, n, false)
			for i := int64(0); i < n; i++ {
				byIndex.ElemReady(i, 0)
				byAddr.AddrReady(byAddr.ElemAddr(i), 0)
			}
			want := uint64(0)
			if credit > 0 {
				want = 2 * uint64(n/int64(credit))
			}
			if got := net.Stats()[noc.Control].Messages; got != want {
				t.Errorf("CreditElems %d, two streams of %d elements: %d Control messages, want %d", credit, n, got, want)
			}
		}
	}
}
