package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"affinityalloc/internal/memsim"
	"affinityalloc/internal/noc"
	"affinityalloc/internal/topo"
)

func TestSetAssocGeometry(t *testing.T) {
	c := MustSetAssoc(32<<10, 8, LRU)
	if c.Sets() != 64 || c.Ways() != 8 {
		t.Errorf("geometry %dx%d, want 64x8", c.Sets(), c.Ways())
	}
	if _, err := NewSetAssoc(1000, 8, LRU); err == nil {
		t.Error("non-divisible size accepted")
	}
	if _, err := NewSetAssoc(3*64*8, 8, LRU); err == nil {
		t.Error("non-power-of-two set count accepted")
	}
}

func TestHitAfterFill(t *testing.T) {
	c := MustSetAssoc(32<<10, 8, LRU)
	if hit, _, _ := c.Access(42, false); hit {
		t.Error("cold access hit")
	}
	if hit, _, _ := c.Access(42, false); !hit {
		t.Error("second access missed")
	}
	if c.Accesses != 2 || c.Hits != 1 || c.Misses != 1 {
		t.Errorf("counters %d/%d/%d", c.Accesses, c.Hits, c.Misses)
	}
	if c.MissRate() != 0.5 {
		t.Errorf("miss rate %f", c.MissRate())
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	// Tiny cache: 1 set x 4 ways (256B, 4-way).
	c := MustSetAssoc(256, 4, LRU)
	// Lines mapping to set 0 under the hashed index: use line numbers
	// whose hash collides. With 1 set everything collides.
	for line := uint64(0); line < 4; line++ {
		c.Access(line, false)
	}
	c.Access(0, false) // make 0 most recent; LRU is 1
	c.Access(99, false)
	if c.Probe(1) {
		t.Error("line 1 survived, want evicted as LRU")
	}
	if !c.Probe(0) || !c.Probe(99) {
		t.Error("expected lines missing")
	}
}

func TestDirtyVictimReported(t *testing.T) {
	c := MustSetAssoc(256, 4, LRU)
	c.Access(7, true) // dirty
	for line := uint64(100); ; line++ {
		_, victim, dirty := c.Access(line, false)
		if dirty {
			if victim != 7 {
				t.Errorf("dirty victim %d, want 7", victim)
			}
			return
		}
		if line > 200 {
			t.Fatal("dirty line never evicted")
		}
	}
}

func TestInstallBypassesStats(t *testing.T) {
	c := MustSetAssoc(32<<10, 8, BRRIP)
	c.Install(11)
	if c.Accesses != 0 {
		t.Error("Install counted as access")
	}
	if hit, _, _ := c.Access(11, false); !hit {
		t.Error("installed line missed")
	}
	// Install of a present line is a no-op.
	c.Install(11)
	if !c.Probe(11) {
		t.Error("re-install dropped the line")
	}
}

func TestBRRIPWorkingSetRetention(t *testing.T) {
	// BRRIP should retain a reused working set against a scan.
	c := MustSetAssoc(64<<10, 16, BRRIP)
	for round := 0; round < 8; round++ {
		for line := uint64(0); line < 256; line++ {
			c.Access(line, false)
		}
	}
	// Scan 4x the cache once.
	for line := uint64(10_000); line < 10_000+4096; line++ {
		c.Access(line, false)
	}
	kept := 0
	for line := uint64(0); line < 256; line++ {
		if c.Probe(line) {
			kept++
		}
	}
	if kept < 128 {
		t.Errorf("only %d/256 hot lines survived the scan", kept)
	}
}

// TestCacheNeverExceedsCapacity: after every access of a seeded stream
// of lines inside the tag bound, the line just accessed is resident, no
// set holds more lines than it has ways, and the cache holds no more
// than sets×ways lines, under both replacement policies.
func TestCacheNeverExceedsCapacity(t *testing.T) {
	for _, repl := range []Replacement{LRU, BRRIP} {
		prop := func(seed int64) bool {
			c := MustSetAssoc(4096, 4, repl) // 16 sets × 4 ways
			var seen []uint64
			for i := uint64(0); i < 500; i++ {
				line := (i*2654435761 + uint64(seed)) % invalidTag
				c.Access(line, i%3 == 0)
				seen = append(seen, line)
				if !c.Probe(line) {
					t.Logf("%v seed %d: line %#x not resident after its access", repl, seed, line)
					return false
				}
				perSet := map[*uint64]int{}
				resident := 0
				for _, l := range seen {
					if c.Probe(l) {
						resident++
						perSet[&c.set(l)[0]]++
					}
				}
				if resident > c.Sets()*c.Ways() {
					t.Logf("%v seed %d: %d lines resident after %d accesses, capacity %d", repl, seed, resident, i+1, c.Sets()*c.Ways())
					return false
				}
				for _, n := range perSet {
					if n > c.Ways() {
						t.Logf("%v seed %d: a set holds %d lines, %d ways", repl, seed, n, c.Ways())
						return false
					}
				}
			}
			return c.Accesses == 500
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
			t.Errorf("%v: %v", repl, err)
		}
	}
}

func newMemSys(t *testing.T) *MemSystem {
	t.Helper()
	space := memsim.MustSpace(memsim.DefaultConfig())
	mesh := topo.MustMesh(8, 8, topo.RowMajor)
	net := noc.New(mesh, noc.DefaultConfig())
	m, err := NewMemSystem(space, net, DefaultMemSysConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMemSystemMissGoesToDRAM(t *testing.T) {
	m := newMemSys(t)
	base, err := m.Space().HeapBrk(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	done, hit := m.Access(0, base, false)
	if hit {
		t.Error("cold access hit")
	}
	if m.DRAMReads != 1 {
		t.Errorf("DRAM reads %d, want 1", m.DRAMReads)
	}
	// Miss latency: bank 20 + request + 100 DRAM + response.
	if done < 120 {
		t.Errorf("miss completed at %d, implausibly fast", done)
	}
	done2, hit2 := m.Access(done, base, false)
	if !hit2 {
		t.Error("second access missed")
	}
	if done2 != done+20 {
		t.Errorf("hit latency %d, want 20", done2-done)
	}
}

func TestMemSystemPreload(t *testing.T) {
	m := newMemSys(t)
	base, _ := m.Space().HeapBrk(1 << 16)
	m.Preload(base, 1<<14)
	acc0, _, _ := m.TotalL3Stats()
	if acc0 != 0 {
		t.Error("preload counted accesses")
	}
	for off := int64(0); off < 1<<14; off += 64 {
		if _, hit := m.Access(0, base+memsim.Addr(off), false); !hit {
			t.Fatalf("preloaded line at +%d missed", off)
		}
	}
	if m.DRAMReads != 0 {
		t.Error("preloaded region went to DRAM")
	}
}

func TestMemSystemBankResolution(t *testing.T) {
	m := newMemSys(t)
	base, err := m.Space().ExpandPool(64, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		va := base + memsim.Addr(i*64)
		if got, want := m.BankOf(va), i%64; got != want {
			t.Fatalf("BankOf line %d = %d, want %d", i, got, want)
		}
	}
}

// TestSetAssocRelease: an array built on storage another array released
// behaves exactly like a fresh one, under either replacement policy,
// and releasing twice puts the storage back once.
func TestSetAssocRelease(t *testing.T) {
	const size, ways = 8 * 3 * memsim.LineSize, 3 // 24 lines: no other test uses this length
	trace := func(c *SetAssoc) []uint64 {
		var out []uint64
		for i := uint64(0); i < 400; i++ {
			line := i * 7919 % 61
			hit, victim, dirty := c.Access(line, i%3 == 0)
			if hit {
				victim = 1 << 62
			}
			if dirty {
				victim |= 1 << 63
			}
			out = append(out, victim)
		}
		return append(out, c.Hits, c.Misses)
	}
	for _, repl := range []Replacement{LRU, BRRIP} {
		want := trace(MustSetAssoc(size, ways, repl))
		for _, prev := range []Replacement{LRU, BRRIP} {
			used := MustSetAssoc(size, ways, prev)
			trace(used)
			used.Release()
			if got := trace(MustSetAssoc(size, ways, repl)); !slices.Equal(got, want) {
				t.Errorf("policy %d on storage a policy-%d array released differs from a fresh array", repl, prev)
			}
		}
	}

	pool := tagPool(size / memsim.LineSize)
	drain := func() (n int) {
		alloc := pool.New
		defer func() { pool.New = alloc }()
		pool.New = nil
		for pool.Get() != nil {
			n++
		}
		return n
	}
	drain()
	c := MustSetAssoc(size, ways, LRU)
	c.Release()
	c.Release()
	if n := drain(); n > 1 {
		t.Errorf("releasing one array twice put %d stores into the pool", n)
	}
}
