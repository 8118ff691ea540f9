package memsim

import (
	"errors"
	"runtime"
	"testing"
)

// regions hands out one extent in each of the three backed regions.
func regions(t *testing.T, s *Space, bytes Addr) map[string]Addr {
	t.Helper()
	pool, err := s.ExpandPool(64, bytes)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := s.HeapBrk(bytes)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := s.AllocPageMapped(make([]int, bytes/PageSize))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Addr{"pool": pool, "heap": heap, "page-mapped": pm}
}

func TestAllocationBacksNothing(t *testing.T) {
	s := newSpace(t)
	regions(t, s, 1<<20)
	if got := s.BackedBytes(); got != 0 {
		t.Fatalf("BackedBytes after ExpandPool/HeapBrk/AllocPageMapped alone = %d, want 0", got)
	}
}

func TestReadBeforeWriteIsZero(t *testing.T) {
	s := newSpace(t)
	for name, base := range regions(t, s, 1<<16) {
		if got := s.ReadU64(base + 1<<16 - 8); got != 0 {
			t.Errorf("%s: first read = %#x, want 0", name, got)
		}
	}
	if got, want := s.BackedBytes(), 3<<16; got != want {
		t.Errorf("BackedBytes after touching every region = %d, want %d", got, want)
	}
}

func TestDataSurvivesExpansion(t *testing.T) {
	s := newSpace(t)
	first := regions(t, s, 1<<16)
	for _, base := range first {
		s.WriteU64(base+8, 0xfeedface)
		s.WriteU32(base+1<<16-4, 7)
	}
	// Grow every region past its materialised capacity and touch the new
	// tail, so each slice is reallocated.
	for name, ext := range regions(t, s, 1<<20) {
		if got := s.ReadU64(ext + 1<<20 - 8); got != 0 {
			t.Errorf("%s: fresh extent reads %#x, want 0", name, got)
		}
	}
	for name, base := range first {
		if got := s.ReadU64(base + 8); got != 0xfeedface {
			t.Errorf("%s: ReadU64 after expansion = %#x, want 0xfeedface", name, got)
		}
		if got := s.ReadU32(base + 1<<16 - 4); got != 7 {
			t.Errorf("%s: ReadU32 after expansion = %d, want 7", name, got)
		}
	}
}

func TestAccessPastUsedPanics(t *testing.T) {
	s := newSpace(t)
	for name, base := range regions(t, s, PageSize) {
		for _, va := range []Addr{base + PageSize, base + PageSize - 4} { // past, and straddling, the extent
			func() {
				defer func() {
					err, _ := recover().(error)
					var ae *AccessError
					if !errors.As(err, &ae) {
						t.Errorf("%s: access at +%d recovered %v, want *AccessError", name, va-base, err)
					}
				}()
				s.WriteU64(va, 1)
			}()
		}
	}
}

func TestGiBExpansionCostsNoHostMemory(t *testing.T) {
	s := newSpace(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 64; i++ {
		if _, err := s.ExpandPool(64, 1<<24); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if p := s.Pools()[0]; p.Used != 1<<30 {
		t.Fatalf("pool Used = %d, want 1 GiB", p.Used)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("expanding a pool to 1 GiB allocated %d host bytes, want < 64 KiB", got)
	}
}
