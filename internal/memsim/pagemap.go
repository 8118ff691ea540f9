package memsim

import "fmt"

// PageMapBase is where the page-mapped segment lives: virtual pages whose
// bank placement is chosen individually. This implements §4.1's "large
// interleavings beyond a page size": each virtual page is backed by a
// physical page from a 4kB-interleaved reservation whose phase lands it
// on the desired bank, so a single 4kB-interleave IOT entry covers the
// whole segment.
const PageMapBase Addr = 1 << 42

// pageMapReserve bounds the page-mapped segment's physical reservation.
const pageMapReserve Addr = 1 << 33 // 8 GiB

type pageMapped struct {
	physStart PAddr
	// pagePhys[i] is the physical page index (relative to physStart)
	// backing virtual page i of the segment.
	pagePhys []PAddr
	// perBankNext counts pages handed out per bank, to pick phases.
	perBankNext []int
	data        []byte
}

// ensurePageMap lazily reserves the segment and installs its IOT entry.
func (s *Space) ensurePageMap() error {
	if s.pm != nil {
		return nil
	}
	pm := &pageMapped{
		physStart:   s.physNext,
		perBankNext: make([]int, s.cfg.Banks),
	}
	s.physNext += PAddr(pageMapReserve)
	if err := s.iot.Install(IOTEntry{
		Start:      pm.physStart,
		End:        pm.physStart + PAddr(pageMapReserve),
		Interleave: PageSize,
	}); err != nil {
		return fmt.Errorf("memsim: reserving page-mapped segment: %w", err)
	}
	s.pm = pm
	return nil
}

// AllocPageMapped allocates len(banks) contiguous virtual pages, placing
// page i on banks[i], and returns the base address. Placement uses the
// page-granularity physical remapping of §4.1, so Bank() resolves through
// the IOT like any other address.
func (s *Space) AllocPageMapped(banks []int) (Addr, error) {
	if len(banks) == 0 {
		return 0, fmt.Errorf("memsim: empty page-mapped allocation")
	}
	if err := s.ensurePageMap(); err != nil {
		return 0, err
	}
	pm := s.pm
	pagesPerBank := int(pageMapReserve / PageSize / Addr(s.cfg.Banks))
	base := PageMapBase + Addr(len(pm.pagePhys))*PageSize
	for _, bank := range banks {
		if bank < 0 || bank >= s.cfg.Banks {
			return 0, fmt.Errorf("memsim: page-mapped bank %d out of range", bank)
		}
		k := pm.perBankNext[bank]
		if k >= pagesPerBank {
			return 0, fmt.Errorf("memsim: page-mapped segment exhausted for bank %d", bank)
		}
		pm.perBankNext[bank]++
		// Physical page index with phase == bank under 4kB interleave.
		pm.pagePhys = append(pm.pagePhys, PAddr(k*s.cfg.Banks+bank))
	}
	return base, nil
}

// pageMapOf returns the segment if va falls inside its allocated extent.
func (s *Space) pageMapOf(va Addr) *pageMapped {
	if s.pm == nil || va < PageMapBase {
		return nil
	}
	idx := (va - PageMapBase) / PageSize
	if int(idx) >= len(s.pm.pagePhys) {
		return nil
	}
	return s.pm
}
