package memsim

import (
	"testing"
	"testing/quick"
)

func newSpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEq1BankMapping(t *testing.T) {
	s := newSpace(t)
	base, err := s.ExpandPool(64, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 1: consecutive 64B lines walk banks 0,1,2,...
	for i := 0; i < 130; i++ {
		va := base + Addr(i*64)
		bank, err := s.Bank(va)
		if err != nil {
			t.Fatal(err)
		}
		if want := i % 64; bank != want {
			t.Fatalf("line %d: bank %d, want %d", i, bank, want)
		}
	}
	// Addresses within one interleave unit share a bank.
	b0, _ := s.Bank(base)
	b1, _ := s.Bank(base + 63)
	if b0 != b1 {
		t.Errorf("intra-line addresses on different banks: %d vs %d", b0, b1)
	}
}

func TestEq1LargerInterleave(t *testing.T) {
	s := newSpace(t)
	base, err := s.ExpandPool(1024, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		va := base + Addr(i*1024)
		bank, _ := s.Bank(va)
		if want := i % 64; bank != want {
			t.Fatalf("chunk %d: bank %d, want %d", i, bank, want)
		}
	}
}

func TestPoolsArePhysicallyContiguous(t *testing.T) {
	s := newSpace(t)
	base, err := s.ExpandPool(64, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	pa0, err := s.Translate(base)
	if err != nil {
		t.Fatal(err)
	}
	pa1, err := s.Translate(base + 12345)
	if err != nil {
		t.Fatal(err)
	}
	if pa1-pa0 != 12345 {
		t.Errorf("pool not physically contiguous: Δpa=%d", pa1-pa0)
	}
}

func TestOneIOTEntryPerPool(t *testing.T) {
	s := newSpace(t)
	for _, il := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
		if _, err := s.ExpandPool(il, 1<<16); err != nil {
			t.Fatal(err)
		}
		// Expanding twice must not add entries.
		if _, err := s.ExpandPool(il, 1<<16); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.IOT().Len(); got != NumPools {
		t.Errorf("IOT has %d entries after touching all pools, want %d", got, NumPools)
	}
}

func TestIOTCapacityAndOverlap(t *testing.T) {
	iot := NewIOT(2)
	if err := iot.Install(IOTEntry{Start: 0, End: 100, Interleave: 64}); err != nil {
		t.Fatal(err)
	}
	if err := iot.Install(IOTEntry{Start: 50, End: 150, Interleave: 64}); err == nil {
		t.Error("overlapping install succeeded")
	}
	if err := iot.Install(IOTEntry{Start: 200, End: 100, Interleave: 64}); err == nil {
		t.Error("empty range install succeeded")
	}
	if err := iot.Install(IOTEntry{Start: 200, End: 300, Interleave: 64}); err != nil {
		t.Fatal(err)
	}
	if err := iot.Install(IOTEntry{Start: 400, End: 500, Interleave: 64}); err == nil {
		t.Error("install beyond capacity succeeded")
	}
}

func TestHeapDefaultInterleave(t *testing.T) {
	s := newSpace(t)
	base, err := s.HeapBrk(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// Linear heap backing: 1kB default interleave walks banks in order.
	b0, _ := s.Bank(base)
	b1, _ := s.Bank(base + 1024)
	if (b0+1)%64 != b1 {
		t.Errorf("default interleave: banks %d then %d, want successor", b0, b1)
	}
	// Same 1kB chunk, same bank.
	b2, _ := s.Bank(base + 1023)
	if b0 != b2 {
		t.Errorf("same chunk mapped to banks %d and %d", b0, b2)
	}
}

func TestHeapRandomLayoutDiffers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HeapLayout = HeapRandom
	s := MustSpace(cfg)
	base, err := s.HeapBrk(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// Under random page mapping, the bank sequence across pages should
	// not be the linear successor sequence.
	linear := true
	prev, _ := s.Bank(base)
	for pg := 1; pg < 32; pg++ {
		b, _ := s.Bank(base + Addr(pg*PageSize))
		if b != (prev+4)%64 { // linear layout advances 4 banks per 4kB page
			linear = false
		}
		prev = b
	}
	if linear {
		t.Error("random heap layout produced the linear bank sequence")
	}
	// Deterministic for a fixed seed.
	s2 := MustSpace(cfg)
	base2, _ := s2.HeapBrk(1 << 20)
	for pg := 0; pg < 32; pg++ {
		b1, _ := s.Bank(base + Addr(pg*PageSize))
		b2, _ := s2.Bank(base2 + Addr(pg*PageSize))
		if b1 != b2 {
			t.Fatal("random layout not reproducible for fixed seed")
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := newSpace(t)
	pool, err := s.ExpandPool(64, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := s.HeapBrk(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []Addr{pool, heap} {
		s.WriteU64(base, 0xdeadbeefcafef00d)
		if got := s.ReadU64(base); got != 0xdeadbeefcafef00d {
			t.Errorf("ReadU64 = %#x", got)
		}
		s.WriteU32(base+8, 42)
		if got := s.ReadU32(base + 8); got != 42 {
			t.Errorf("ReadU32 = %d", got)
		}
		s.WriteAddr(base+32, 0x123456)
		if got := s.ReadAddr(base + 32); got != 0x123456 {
			t.Errorf("ReadAddr = %#x", got)
		}
	}
}

func TestReadWriteProperty(t *testing.T) {
	s := newSpace(t)
	base, err := s.ExpandPool(256, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(off uint16, v uint64) bool {
		va := base + Addr(off)
		s.WriteU64(va, v)
		return s.ReadU64(va) == v
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmappedAccessFails(t *testing.T) {
	s := newSpace(t)
	if _, err := s.Translate(0x10); err == nil {
		t.Error("Translate(0x10) succeeded, want error")
	}
	if _, err := s.Bank(PoolBase); err == nil {
		t.Error("Bank on unexpanded pool succeeded, want error")
	}
}

func TestPageMappedPlacement(t *testing.T) {
	s := newSpace(t)
	banks := []int{5, 5, 17, 63, 0}
	base, err := s.AllocPageMapped(banks)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range banks {
		for _, off := range []Addr{0, 64, PageSize - 1} {
			va := base + Addr(i*PageSize) + off
			got, err := s.Bank(va)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("page %d off %d: bank %d, want %d", i, off, got, want)
			}
		}
	}
	// Storage works and stays per-page isolated.
	s.WriteU64(base, 1)
	s.WriteU64(base+Addr(len(banks)-1)*PageSize, 2)
	if s.ReadU64(base) != 1 || s.ReadU64(base+Addr(len(banks)-1)*PageSize) != 2 {
		t.Error("page-mapped storage corrupted")
	}
	// A second allocation is contiguous after the first.
	base2, err := s.AllocPageMapped([]int{9})
	if err != nil {
		t.Fatal(err)
	}
	if base2 != base+Addr(len(banks))*PageSize {
		t.Errorf("second allocation at %#x, want %#x", uint64(base2), uint64(base+Addr(len(banks))*PageSize))
	}
	if b, _ := s.Bank(base2); b != 9 {
		t.Errorf("second allocation bank %d, want 9", b)
	}
}

func TestPageMappedUsesOneIOTEntry(t *testing.T) {
	s := newSpace(t)
	if _, err := s.AllocPageMapped([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllocPageMapped([]int{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if got := s.IOT().Len(); got != 1 {
		t.Errorf("page-mapped segment used %d IOT entries, want 1", got)
	}
}

func TestPoolExhaustion(t *testing.T) {
	s := newSpace(t)
	if _, err := s.ExpandPool(64, Addr(maxPoolReserve)+PageSize); err == nil {
		t.Error("over-reserving pool succeeded, want error")
	}
}

func TestLineHelpers(t *testing.T) {
	if Line(127) != 1 || Line(128) != 2 {
		t.Error("Line() wrong")
	}
	if LineAddr(127) != 64 || LineAddr(128) != 128 {
		t.Error("LineAddr() wrong")
	}
}

func TestNPOTValidation(t *testing.T) {
	plain := newSpace(t)
	if plain.ValidInterleave(192) {
		t.Error("NPOT interleave accepted without AllowNPOT")
	}
	if _, err := plain.ExpandPool(192, 1<<12); err == nil {
		t.Error("NPOT pool created without AllowNPOT")
	}

	cfg := DefaultConfig()
	cfg.AllowNPOT = true
	s := MustSpace(cfg)
	cases := []struct {
		il   int
		want bool
	}{
		{64, true}, {128, true}, {192, true}, {320, true}, {4096, true},
		{32, false}, {100, false}, {8192, false}, {0, false},
	}
	for _, c := range cases {
		if got := s.ValidInterleave(c.il); got != c.want {
			t.Errorf("ValidInterleave(%d) = %v, want %v", c.il, got, c.want)
		}
	}
	// An NPOT pool behaves per Eq. 1 and takes one IOT entry.
	base, err := s.ExpandPool(320, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got, want := s.MustBank(base+Addr(i*320)), i%64; got != want {
			t.Fatalf("chunk %d on bank %d, want %d", i, got, want)
		}
	}
	if s.IOT().Len() != 1 {
		t.Errorf("IOT entries %d, want 1", s.IOT().Len())
	}
}

func TestPoolSlotsIndependent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AllowNPOT = true
	s := MustSpace(cfg)
	// Mixed pow2 and NPOT pools coexist with distinct address slots.
	b64, err := s.ExpandPool(64, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	b192, err := s.ExpandPool(192, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if b64 == b192 {
		t.Error("pools share a base")
	}
	if p := s.PoolOf(b64); p == nil || p.Interleave != 64 {
		t.Error("PoolOf(b64) wrong")
	}
	if p := s.PoolOf(b192); p == nil || p.Interleave != 192 {
		t.Error("PoolOf(b192) wrong")
	}
}
