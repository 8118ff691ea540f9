// Package memsim models the simulated memory system the affinity allocator
// places data into: a 48-bit virtual address space with a conventional heap
// and a set of interleave pools (§4.1 of the paper), virtual-to-physical
// translation, and the Interleave Override Table (IOT, Table 1) that maps
// physical cache lines to shared-L3 banks.
//
// Go's garbage-collected runtime gives no control over where allocations
// land, so the entire address space is simulated: allocators hand out
// memsim addresses and workload data lives in flat byte regions indexed by
// those addresses. Bank placement is then the pure function the paper
// defines — Eq. 1 for pool addresses, the default static-NUCA interleave
// for everything else.
package memsim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// Addr is a simulated virtual address.
type Addr uint64

// PAddr is a simulated physical address.
type PAddr uint64

// Core geometry constants. LineSize and PageSize match Table 2.
const (
	LineSize = 64
	PageSize = 4096

	// HeapBase is where the conventional (non-pool) heap begins.
	HeapBase Addr = 1 << 32
	// HeapSpan bounds the heap's virtual extent.
	HeapSpan Addr = 1 << 38

	// PoolBase is where interleave pools begin; each pool owns PoolSpan
	// of virtual address space (the paper reserves 1TB per pool).
	PoolBase Addr = 1 << 44
	PoolSpan Addr = 1 << 40

	// MinInterleave..MaxInterleave are the supported power-of-two pool
	// interleavings: 64B (one line) through 4kB (one page), 7 pools.
	MinInterleave = 64
	MaxInterleave = 4096
	NumPools      = 7
)

// ValidInterleave reports whether an interleaving is supported by this
// space: the paper's power-of-two set always, plus (when the §4.1
// "future work" extension is enabled) any line-multiple up to a page —
// those cost a division rather than a shift in the Eq. 1 lookup.
func (s *Space) ValidInterleave(v int) bool {
	if v >= MinInterleave && v <= MaxInterleave && v&(v-1) == 0 {
		return true
	}
	return s.cfg.AllowNPOT && v >= MinInterleave && v <= MaxInterleave && v%LineSize == 0
}

// IOTEntry overrides the L3 interleaving for physical addresses in
// [Start, End). This is Table 1 of the paper: 48-bit start/end physical
// addresses plus a 16-bit interleaving.
type IOTEntry struct {
	Start, End PAddr
	Interleave uint32
}

// IOT is the Interleave Override Table replicated at every L2/L3 cache
// controller. Table 2 sizes it at 16 regions; entries beyond the capacity
// are rejected, forcing the OS to consolidate pools.
type IOT struct {
	capacity int
	entries  []IOTEntry
	// Lookups counts queries, mirroring the paper's observation that the
	// table is touched on every L2 miss and L3 access.
	Lookups uint64
}

// NewIOT builds a table with the given entry capacity.
func NewIOT(capacity int) *IOT {
	return &IOT{capacity: capacity}
}

// Install adds an override entry. It fails when the table is full or the
// range is malformed or overlaps an existing entry.
func (t *IOT) Install(e IOTEntry) error {
	if e.End <= e.Start {
		return fmt.Errorf("memsim: IOT range [%#x,%#x) is empty", e.Start, e.End)
	}
	if e.Interleave < MinInterleave {
		return fmt.Errorf("memsim: IOT interleave %dB below line size", e.Interleave)
	}
	if len(t.entries) >= t.capacity {
		return fmt.Errorf("memsim: IOT full (%d entries)", t.capacity)
	}
	for _, prev := range t.entries {
		if e.Start < prev.End && prev.Start < e.End {
			return fmt.Errorf("memsim: IOT range [%#x,%#x) overlaps [%#x,%#x)", e.Start, e.End, prev.Start, prev.End)
		}
	}
	t.entries = append(t.entries, e)
	return nil
}

// Lookup returns the override entry covering pa, if any.
func (t *IOT) Lookup(pa PAddr) (IOTEntry, bool) {
	t.Lookups++
	for _, e := range t.entries {
		if pa >= e.Start && pa < e.End {
			return e, true
		}
	}
	return IOTEntry{}, false
}

// peek is Lookup without the Lookups counter, for observers (telemetry,
// the online reconciler) whose queries must not perturb the counters a
// real machine would expose.
func (t *IOT) peek(pa PAddr) (IOTEntry, bool) {
	for _, e := range t.entries {
		if pa >= e.Start && pa < e.End {
			return e, true
		}
	}
	return IOTEntry{}, false
}

// Len returns the number of installed entries.
func (t *IOT) Len() int { return len(t.entries) }

// HeapLayout selects how heap virtual pages are backed by physical pages.
type HeapLayout int

const (
	// HeapLinear backs heap pages with sequential physical pages, so the
	// default 1kB NUCA interleave walks banks in order.
	HeapLinear HeapLayout = iota
	// HeapRandom maps each virtual page to a random physical page — the
	// "Random" layout of Fig 4 that avoids pathological alignment but
	// forfeits affinity.
	HeapRandom
)

// Config parameterizes a simulated address space.
type Config struct {
	Banks             int        // number of L3 banks
	DefaultInterleave int        // static-NUCA interleave for non-pool data (Table 2: 1kB)
	IOTCapacity       int        // Table 2: 16 regions
	HeapLayout        HeapLayout // physical backing policy for heap pages
	Seed              int64      // RNG seed for HeapRandom
	// AllowNPOT enables the §4.1 future-work extension: interleave
	// pools at non-power-of-two, line-multiple granularities (e.g.
	// 192B), removing element-padding overheads at the cost of a
	// division in the bank lookup.
	AllowNPOT bool
	// DeadBanks lists disabled L3 banks (fault injection): lines whose
	// nominal home bank is dead are deterministically rehomed across the
	// survivors inside BankOfPhys, so the IOT/affinity layer — and every
	// placement decision built on it — observes the degraded bank map.
	DeadBanks []int
}

// DefaultConfig mirrors Table 2 for a 64-bank system.
func DefaultConfig() Config {
	return Config{
		Banks:             64,
		DefaultInterleave: 1024,
		IOTCapacity:       16,
		HeapLayout:        HeapLinear,
		Seed:              1,
	}
}

// Pool is one interleave pool: a virtual segment guaranteed to map to L3
// banks with a fixed interleaving, backed by contiguous physical pages so
// a single IOT entry covers it (§4.1).
type Pool struct {
	Index      int
	Interleave int
	Start      Addr  // virtual base
	PhysStart  PAddr // physical base (contiguous)
	Reserved   Addr  // bytes of VA/PA reserved (IOT entry extent)
	Used       Addr  // bytes handed to the runtime so far
	data       []byte
}

// Space is the simulated address space: heap plus interleave pools, the
// page table, the IOT, and the flat storage behind every address.
type Space struct {
	cfg Config
	// poolByIl maps interleave -> pool; poolSlots indexes pools by their
	// virtual-address slot for fast PoolOf decoding.
	poolByIl  map[int]*Pool
	poolSlots []*Pool
	pm        *pageMapped
	iot       *IOT
	heap      []byte
	heapUsed  Addr
	// heapPages maps a heap virtual page number — pages are dense from
	// HeapBase — to its physical page number; 0 means not yet mapped,
	// since physical page 0 is never handed out. It grows as pages fault.
	heapPages []PAddr
	// physTaken tracks physical pages claimed by random heap mappings.
	physTaken map[PAddr]bool
	physNext  PAddr
	rng       *rand.Rand

	// deadBank and survivors resolve Config.DeadBanks; both stay nil for
	// a fault-free space so the bank lookup fast path is untouched.
	deadBank  []bool
	survivors []int

	// overrides is the migration remap layered over the nominal IOT /
	// static-NUCA placement: granule physical base -> new home bank. It
	// stays nil until the online reconciler actually moves a chunk, so
	// runs without migrations keep the untouched fast path.
	overrides map[PAddr]int

	// PageFaults counts demand mappings of heap pages.
	PageFaults uint64
	// PoolExpansions counts runtime requests for more pool space.
	PoolExpansions uint64
	// RemappedAccesses counts bank lookups rehomed off dead banks.
	RemappedAccesses uint64
	// MigratedAccesses counts bank lookups answered by a migration
	// override instead of the nominal placement.
	MigratedAccesses uint64
}

// NewSpace builds an address space per cfg. Pools are reserved lazily: the
// first expansion of a pool claims its contiguous physical segment and
// installs its IOT entry.
func NewSpace(cfg Config) (*Space, error) {
	if cfg.Banks <= 0 {
		return nil, fmt.Errorf("memsim: invalid bank count %d", cfg.Banks)
	}
	if cfg.DefaultInterleave < LineSize || cfg.DefaultInterleave&(cfg.DefaultInterleave-1) != 0 {
		return nil, fmt.Errorf("memsim: invalid default interleave %d", cfg.DefaultInterleave)
	}
	if cfg.IOTCapacity < NumPools {
		return nil, fmt.Errorf("memsim: IOT capacity %d cannot hold %d pools", cfg.IOTCapacity, NumPools)
	}
	s := &Space{
		cfg:       cfg,
		poolByIl:  make(map[int]*Pool),
		iot:       NewIOT(cfg.IOTCapacity),
		physTaken: make(map[PAddr]bool),
		physNext:  PageSize, // keep physical page 0 unused
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
	if len(cfg.DeadBanks) > 0 {
		s.deadBank = make([]bool, cfg.Banks)
		for _, b := range cfg.DeadBanks {
			if b < 0 || b >= cfg.Banks {
				return nil, fmt.Errorf("memsim: dead bank %d out of range [0,%d)", b, cfg.Banks)
			}
			s.deadBank[b] = true
		}
		for b := 0; b < cfg.Banks; b++ {
			if !s.deadBank[b] {
				s.survivors = append(s.survivors, b)
			}
		}
		if len(s.survivors) == 0 {
			return nil, fmt.Errorf("memsim: all %d banks dead", cfg.Banks)
		}
	}
	return s, nil
}

// MustSpace is NewSpace that panics on error, for static configurations.
// The panic names its invariant: callers reach for MustSpace only with
// configs they constructed themselves, so a failure is a programming
// error, not an input error.
func MustSpace(cfg Config) *Space {
	s, err := NewSpace(cfg)
	if err != nil {
		panic(fmt.Sprintf("memsim: MustSpace on an invalid static config (programmer error — use NewSpace for untrusted configs): %v", err))
	}
	return s
}

// Banks returns the number of L3 banks.
func (s *Space) Banks() int { return s.cfg.Banks }

// IOT exposes the interleave override table (read-mostly; the OS installs
// entries through pool expansion).
func (s *Space) IOT() *IOT { return s.iot }

// maxPoolReserve bounds a pool's contiguous physical reservation in
// simulation. Generous enough for every experiment, small enough to keep
// the simulated physical space plausible.
const maxPoolReserve Addr = 1 << 33 // 8 GiB per pool

// Pool returns the pool for a supported interleaving, creating it (with
// its physical reservation and IOT entry) on first use. Each pool takes
// one IOT entry, so the table capacity bounds how many distinct
// interleavings a process may use.
func (s *Space) Pool(interleave int) (*Pool, error) {
	if !s.ValidInterleave(interleave) {
		return nil, fmt.Errorf("memsim: unsupported interleave %dB", interleave)
	}
	if p := s.poolByIl[interleave]; p != nil {
		return p, nil
	}
	slot := len(s.poolSlots)
	p := &Pool{
		Index:      slot,
		Interleave: interleave,
		Start:      PoolBase + Addr(slot)*PoolSpan,
		PhysStart:  s.physNext,
		Reserved:   maxPoolReserve,
	}
	s.physNext += PAddr(maxPoolReserve)
	if err := s.iot.Install(IOTEntry{
		Start:      p.PhysStart,
		End:        p.PhysStart + PAddr(p.Reserved),
		Interleave: uint32(interleave),
	}); err != nil {
		return nil, fmt.Errorf("memsim: reserving pool %dB: %w", interleave, err)
	}
	s.poolByIl[interleave] = p
	s.poolSlots = append(s.poolSlots, p)
	return p, nil
}

// PoolIfOpen returns the pool of an interleaving without creating it: nil
// until some allocation or OpenPool has reserved it.
func (s *Space) PoolIfOpen(interleave int) *Pool { return s.poolByIl[interleave] }

// Pools returns the open pools in slot order; callers must not modify it.
func (s *Space) Pools() []*Pool { return s.poolSlots }

// ExpandPool grows a pool's usable extent by at least bytes (rounded up to
// whole pages) and returns the virtual base of the newly usable region.
// This is the brk-style syscall the runtime issues when a free list runs
// dry (§4.1).
func (s *Space) ExpandPool(interleave int, bytes Addr) (Addr, error) {
	p, err := s.Pool(interleave)
	if err != nil {
		return 0, err
	}
	bytes = (bytes + PageSize - 1) &^ Addr(PageSize-1)
	if p.Used+bytes > p.Reserved {
		return 0, fmt.Errorf("memsim: pool %dB exhausted (%d used + %d requested > %d reserved)", interleave, p.Used, bytes, p.Reserved)
	}
	base := p.Start + p.Used
	p.Used += bytes
	s.PoolExpansions++
	return base, nil
}

// PoolOf returns the pool containing va, or nil when va is not a pool
// address.
func (s *Space) PoolOf(va Addr) *Pool {
	if va < PoolBase {
		return nil
	}
	idx := int((va - PoolBase) / PoolSpan)
	if idx < 0 || idx >= len(s.poolSlots) {
		return nil
	}
	p := s.poolSlots[idx]
	if p == nil || va < p.Start || va >= p.Start+p.Used {
		return nil
	}
	return p
}

// HeapBrk extends the heap by bytes (rounded up to whole pages) and
// returns the base of the new region — the conventional allocator's
// backing store.
func (s *Space) HeapBrk(bytes Addr) (Addr, error) {
	bytes = (bytes + PageSize - 1) &^ Addr(PageSize-1)
	if s.heapUsed+bytes > HeapSpan {
		return 0, fmt.Errorf("memsim: heap exhausted")
	}
	base := HeapBase + s.heapUsed
	s.heapUsed += bytes
	return base, nil
}

// materialise grows a region's backing slice to its current extent. The
// allocation calls above only move extents; bytes appear — contiguous and
// zero-filled — when an access first reaches past the slice, so
// placement-only users (affinityd, trace.Replay) never pay for payload.
func materialise(data []byte, extent int) []byte {
	if cap(data) >= extent {
		return data[:extent]
	}
	grown := make([]byte, extent, growCap(cap(data), extent))
	copy(grown, data)
	return grown
}

// BackedBytes returns the host bytes materialised behind the space so
// far: zero until some simulated byte is read or written.
func (s *Space) BackedBytes() int {
	n := len(s.heap)
	if s.pm != nil {
		n += len(s.pm.data)
	}
	for _, p := range s.poolSlots {
		n += len(p.data)
	}
	return n
}

func growCap(have, need int) int {
	c := have
	if c == 0 {
		c = 1 << 16
	}
	for c < need {
		c *= 2
	}
	return c
}

// Translate maps a virtual address to its physical address, faulting heap
// pages in on demand.
func (s *Space) Translate(va Addr) (PAddr, error) {
	if p := s.PoolOf(va); p != nil {
		return p.PhysStart + PAddr(va-p.Start), nil
	}
	if pm := s.pageMapOf(va); pm != nil {
		idx := (va - PageMapBase) / PageSize
		return pm.physStart + pm.pagePhys[idx]*PageSize + PAddr(va%PageSize), nil
	}
	if va >= HeapBase && va < HeapBase+s.heapUsed {
		vpage := (va - HeapBase) / PageSize
		var ppage PAddr
		if vpage < Addr(len(s.heapPages)) {
			ppage = s.heapPages[vpage]
		}
		if ppage == 0 {
			ppage = s.mapHeapPage(vpage)
		}
		return ppage*PageSize + PAddr(va%PageSize), nil
	}
	return 0, fmt.Errorf("memsim: unmapped address %#x", uint64(va))
}

func (s *Space) mapHeapPage(vpage Addr) PAddr {
	var ppage PAddr
	switch s.cfg.HeapLayout {
	case HeapRandom:
		// Pick a fresh random physical page outside the pool
		// reservations; collisions with already-mapped pages are avoided
		// by drawing from a dedicated high region.
		ppage = PAddr(1<<36)/PageSize + PAddr(s.rng.Int63n(1<<24))
		for s.physTaken[ppage] {
			ppage++
		}
		s.physTaken[ppage] = true
	default:
		ppage = s.physNext / PageSize
		s.physNext += PageSize
	}
	if need := int(vpage) + 1; need > len(s.heapPages) {
		s.heapPages = append(s.heapPages, make([]PAddr, need-len(s.heapPages))...)
	}
	s.heapPages[vpage] = ppage
	s.PageFaults++
	return ppage
}

// Bank returns the L3 bank holding the cache line at va: Eq. 1 through the
// IOT for pool addresses, the default static-NUCA interleave otherwise.
func (s *Space) Bank(va Addr) (int, error) {
	pa, err := s.Translate(va)
	if err != nil {
		return 0, err
	}
	return s.BankOfPhys(pa), nil
}

// BankOfPhys maps a physical address to its L3 bank, consulting the IOT
// exactly as an L2/L3 cache controller would. The lookup layers three
// mechanisms, in order: the nominal placement (IOT interleave for pool
// addresses, static-NUCA otherwise), then the migration override table
// (one entry per re-homed granule), then the dead-bank rehome. Lines
// nominally homed on a dead bank are rehomed deterministically across
// the survivors (spread by line number, so one dead bank's sets scatter
// rather than pile onto a single neighbor) — the remap every placement
// decision observes.
func (s *Space) BankOfPhys(pa PAddr) int {
	var b int
	var gstart PAddr
	if e, ok := s.iot.Lookup(pa); ok {
		i := PAddr(e.Interleave)
		gstart = e.Start + (pa-e.Start)/i*i
		b = int(((pa - e.Start) / i) % PAddr(s.cfg.Banks))
	} else {
		i := PAddr(s.cfg.DefaultInterleave)
		gstart = pa / i * i
		b = int((pa / i) % PAddr(s.cfg.Banks))
	}
	if s.overrides != nil {
		if nb, ok := s.overrides[gstart]; ok {
			b = nb
			s.MigratedAccesses++
		}
	}
	if s.deadBank != nil && s.deadBank[b] {
		b = s.survivors[int((pa/LineSize)%PAddr(len(s.survivors)))]
		s.RemappedAccesses++
	}
	return b
}

// Granule returns the placement granule containing va: the maximal
// aligned virtual window whose lines share one nominal home bank — the
// pool interleave for pool addresses, the default NUCA interleave for
// heap and page-mapped data. Granules are the unit the online
// reconciler counts, plans and migrates; because pools are physically
// contiguous and heap/page-mapped backing is page-granular with
// interleaves dividing the page size, a virtual granule always maps to
// one contiguous, identically-aligned physical granule.
func (s *Space) Granule(va Addr) (start Addr, size int) {
	if p := s.PoolOf(va); p != nil {
		i := Addr(p.Interleave)
		return p.Start + (va-p.Start)/i*i, p.Interleave
	}
	i := Addr(s.cfg.DefaultInterleave)
	return va / i * i, s.cfg.DefaultInterleave
}

// HomeBank returns the placement-intent home bank of the granule
// containing va: the migration override when one is installed, the
// nominal IOT/static-NUCA bank otherwise — possibly a dead bank, which
// is exactly what the reconciler needs to see to re-home the granule.
// Unlike Bank it never touches the Lookups/RemappedAccesses/
// MigratedAccesses counters: it is an observer's query, not a modeled
// hardware lookup.
func (s *Space) HomeBank(va Addr) (int, error) {
	gva, _ := s.Granule(va)
	pa, err := s.Translate(gva)
	if err != nil {
		return 0, err
	}
	var b int
	if e, ok := s.iot.peek(pa); ok {
		b = int(((pa - e.Start) / PAddr(e.Interleave)) % PAddr(s.cfg.Banks))
	} else {
		b = int((pa / PAddr(s.cfg.DefaultInterleave)) % PAddr(s.cfg.Banks))
	}
	if s.overrides != nil {
		if nb, ok := s.overrides[pa]; ok {
			b = nb
		}
	}
	return b, nil
}

// SetHomeOverride re-homes the granule containing va to bank `to`,
// layering a migration entry over the nominal placement. Installing an
// override never moves data or charges cycles — the caller
// (cache.MemSystem.MigrateLines) models the traffic.
func (s *Space) SetHomeOverride(va Addr, to int) error {
	if to < 0 || to >= s.cfg.Banks {
		return fmt.Errorf("memsim: override bank %d out of range [0,%d)", to, s.cfg.Banks)
	}
	gva, _ := s.Granule(va)
	pa, err := s.Translate(gva)
	if err != nil {
		return err
	}
	if s.overrides == nil {
		s.overrides = make(map[PAddr]int)
	}
	s.overrides[pa] = to
	return nil
}

// KillBank marks a bank dead mid-run (the kill-bank fault). Subsequent
// BankOfPhys lookups rehome its lines across the survivors exactly as a
// build-time dead bank would, and BankAlive/AliveBanks — hence every
// placement decision — observe the shrunken machine. Killing the last
// survivor or an already-dead bank is refused.
func (s *Space) KillBank(b int) error {
	if b < 0 || b >= s.cfg.Banks {
		return fmt.Errorf("memsim: kill-bank %d out of range [0,%d)", b, s.cfg.Banks)
	}
	if s.deadBank == nil {
		s.deadBank = make([]bool, s.cfg.Banks)
	}
	if s.deadBank[b] {
		return fmt.Errorf("memsim: kill-bank %d already dead", b)
	}
	alive := 0
	for i := range s.deadBank {
		if !s.deadBank[i] {
			alive++
		}
	}
	if alive <= 1 {
		return fmt.Errorf("memsim: kill-bank %d would leave no survivors", b)
	}
	s.deadBank[b] = true
	s.survivors = s.survivors[:0]
	for i := 0; i < s.cfg.Banks; i++ {
		if !s.deadBank[i] {
			s.survivors = append(s.survivors, i)
		}
	}
	return nil
}

// BankAlive reports whether a bank is alive (always true without fault
// injection).
func (s *Space) BankAlive(b int) bool {
	return s.deadBank == nil || !s.deadBank[b]
}

// AliveBanks returns the surviving banks in ascending order, or nil when
// every bank is alive. The slice is the space's own, read-only to the
// caller and valid until the next KillBank: bank selection reads it on
// every placement and must not allocate.
func (s *Space) AliveBanks() []int {
	return s.survivors
}

// MustBank is Bank that panics on unmapped addresses; placement code uses
// it only on addresses it has just allocated, so an unmapped address here
// is a broken allocator, and the panic names that invariant.
func (s *Space) MustBank(va Addr) int {
	b, err := s.Bank(va)
	if err != nil {
		panic(fmt.Sprintf("memsim: MustBank on an address the allocator never produced (programmer error — placement code only queries its own allocations): %v", err))
	}
	return b
}

// Line returns the cache-line number of va (va / 64).
func Line(va Addr) Addr { return va / LineSize }

// LineAddr returns the base address of the line containing va.
func LineAddr(va Addr) Addr { return va &^ (LineSize - 1) }

// backing returns the byte slice and offset behind va for n bytes, or an
// error when the range is unmapped or crosses a region boundary.
func (s *Space) backing(va Addr, n int) ([]byte, error) {
	if p := s.PoolOf(va); p != nil {
		off := int(va - p.Start)
		if off+n > len(p.data) {
			if p.data = materialise(p.data, int(p.Used)); off+n > len(p.data) {
				return nil, fmt.Errorf("memsim: pool access %#x+%d beyond extent", uint64(va), n)
			}
		}
		return p.data[off : off+n], nil
	}
	if pm := s.pageMapOf(va); pm != nil {
		off := int(va - PageMapBase)
		if off+n > len(pm.data) {
			if pm.data = materialise(pm.data, len(pm.pagePhys)*PageSize); off+n > len(pm.data) {
				return nil, fmt.Errorf("memsim: page-mapped access %#x+%d beyond extent", uint64(va), n)
			}
		}
		return pm.data[off : off+n], nil
	}
	if va >= HeapBase && va < HeapBase+s.heapUsed {
		off := int(va - HeapBase)
		if off+n > len(s.heap) {
			if s.heap = materialise(s.heap, int(s.heapUsed)); off+n > len(s.heap) {
				return nil, fmt.Errorf("memsim: heap access %#x+%d beyond extent", uint64(va), n)
			}
		}
		return s.heap[off : off+n], nil
	}
	return nil, fmt.Errorf("memsim: access to unmapped address %#x", uint64(va))
}

// ReadU64 loads the 8-byte little-endian word at va. An unmapped access
// raises a typed *AccessError panic the harness converts into a per-cell
// error (see AccessError).
func (s *Space) ReadU64(va Addr) uint64 {
	b, err := s.backing(va, 8)
	if err != nil {
		accessPanic("read", va, 8, err)
	}
	return binary.LittleEndian.Uint64(b)
}

// WriteU64 stores an 8-byte little-endian word at va; unmapped accesses
// raise *AccessError (see ReadU64).
func (s *Space) WriteU64(va Addr, v uint64) {
	b, err := s.backing(va, 8)
	if err != nil {
		accessPanic("write", va, 8, err)
	}
	binary.LittleEndian.PutUint64(b, v)
}

// ReadU32 loads the 4-byte little-endian word at va; unmapped accesses
// raise *AccessError (see ReadU64).
func (s *Space) ReadU32(va Addr) uint32 {
	b, err := s.backing(va, 4)
	if err != nil {
		accessPanic("read", va, 4, err)
	}
	return binary.LittleEndian.Uint32(b)
}

// WriteU32 stores a 4-byte little-endian word at va; unmapped accesses
// raise *AccessError (see ReadU64).
func (s *Space) WriteU32(va Addr, v uint32) {
	b, err := s.backing(va, 4)
	if err != nil {
		accessPanic("write", va, 4, err)
	}
	binary.LittleEndian.PutUint32(b, v)
}

// ReadAddr loads a simulated pointer stored at va.
func (s *Space) ReadAddr(va Addr) Addr { return Addr(s.ReadU64(va)) }

// WriteAddr stores a simulated pointer at va.
func (s *Space) WriteAddr(va Addr, p Addr) { s.WriteU64(va, uint64(p)) }
