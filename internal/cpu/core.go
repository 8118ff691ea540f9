// Package cpu models conventional in-core execution — the paper's
// "In-Core" baseline where no computation is offloaded. Each core has
// private L1/L2 caches, a bounded pool of outstanding misses (MSHRs), and
// a prefetcher model for streaming accesses; atomics pay directory
// coherence costs. Timing separates cleanly from function: workloads read
// and write values through memsim directly and report each access to a
// Core, which accounts cycles, cache state, and NoC traffic.
package cpu

import (
	"fmt"

	"affinityalloc/internal/cache"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/noc"
)

// AccessKind tells the timing model how an access behaves in an OOO core.
type AccessKind int

const (
	// Streaming accesses follow an affine pattern the L1/L2 prefetchers
	// capture (Table 2: Bingo + stride); their latency is hidden up to
	// the prefetch depth, leaving bandwidth as the limit.
	Streaming AccessKind = iota
	// Irregular accesses (indirect, hashed) overlap only up to the MSHR
	// count.
	Irregular
	// Dependent accesses serialize against program order — pointer
	// chasing, where the next address needs the previous value.
	Dependent
)

// Config parameterizes a core; defaults mirror Table 2's 8-issue OOO CPU.
type Config struct {
	L1SizeBytes  int
	L1Ways       int
	L1HitLatency engine.Time
	L2SizeBytes  int
	L2Ways       int
	L2HitLatency engine.Time
	MSHRs        int // outstanding irregular misses
	PrefetchDeep int // outstanding streaming fills (prefetcher depth)
	IssueMemOps  int // memory ops issued per cycle
	IssueALUOps  int // scalar ALU ops per cycle
	SIMDLanes    int // elements per SIMD op (AVX-512: 16 floats)
}

// DefaultConfig mirrors Table 2.
func DefaultConfig() Config {
	return Config{
		L1SizeBytes:  32 << 10,
		L1Ways:       8,
		L1HitLatency: 2,
		L2SizeBytes:  256 << 10,
		L2Ways:       16,
		L2HitLatency: 16,
		MSHRs:        16,
		PrefetchDeep: 48,
		IssueMemOps:  2,
		IssueALUOps:  8,
		SIMDLanes:    16,
	}
}

// Coherence tracks which core's private cache owns each line in modified
// state, charging directory round-trips when ownership migrates — the
// coherence misses that make contended in-core atomics expensive (§7.2).
type Coherence struct {
	owner map[uint64]int // line -> core id holding it modified

	// Transfers counts ownership migrations (coherence misses).
	Transfers uint64
}

// NewCoherence builds an empty directory.
func NewCoherence() *Coherence {
	return &Coherence{owner: make(map[uint64]int)}
}

// acquire records that core takes the line modified, reporting the
// previous owner if the line migrates.
func (d *Coherence) acquire(line uint64, core int) (prevOwner int, migrated bool) {
	prev, ok := d.owner[line]
	d.owner[line] = core
	if ok && prev != core {
		d.Transfers++
		return prev, true
	}
	return 0, false
}

// Core is one tile's in-order-retire, out-of-order-issue execution model.
type Core struct {
	id   int
	cfg  Config
	mem  *cache.MemSystem
	coh  *Coherence
	l1   *cache.SetAssoc
	l2   *cache.SetAssoc
	now  engine.Time
	done engine.Time // completion of the latest-finishing access

	// slotsIrr and slotsStream model MSHR and prefetch-depth occupancy:
	// each entry is the cycle that slot frees.
	slotsIrr    []engine.Time
	slotsStream []engine.Time

	// Counters for the energy model and reports.
	Loads, Stores, Atomics, ALUOps, SIMDOps uint64
}

// NewCore builds a core on tile id, sharing the memory system and
// coherence directory with its peers.
func NewCore(id int, mem *cache.MemSystem, coh *Coherence, cfg Config) (*Core, error) {
	l1, err := cache.NewSetAssoc(cfg.L1SizeBytes, cfg.L1Ways, cache.LRU)
	if err != nil {
		return nil, fmt.Errorf("cpu: L1: %w", err)
	}
	l2, err := cache.NewSetAssoc(cfg.L2SizeBytes, cfg.L2Ways, cache.LRU)
	if err != nil {
		return nil, fmt.Errorf("cpu: L2: %w", err)
	}
	return &Core{
		id:          id,
		cfg:         cfg,
		mem:         mem,
		coh:         coh,
		l1:          l1,
		l2:          l2,
		slotsIrr:    make([]engine.Time, cfg.MSHRs),
		slotsStream: make([]engine.Time, cfg.PrefetchDeep),
	}, nil
}

// Now returns the core's issue-front cycle.
func (c *Core) Now() engine.Time { return c.now }

// SetNow fast-forwards the core (used when a core starts a parallel
// region late, e.g. after a barrier).
func (c *Core) SetNow(t engine.Time) {
	if t > c.now {
		c.now = t
	}
	if t > c.done {
		c.done = t
	}
}

// Drained returns the cycle when every outstanding access has completed —
// the core's finish time for a kernel.
func (c *Core) Drained() engine.Time {
	t := engine.MaxTime(c.now, c.done)
	for _, s := range c.slotsIrr {
		t = engine.MaxTime(t, s)
	}
	for _, s := range c.slotsStream {
		t = engine.MaxTime(t, s)
	}
	return t
}

// Release hands the core's L1 and L2 tag storage back for the next
// machine to reuse. The core must not issue afterwards; its counters
// stay readable. Releasing twice does nothing.
func (c *Core) Release() {
	c.l1.Release()
	c.l2.Release()
}

// L1 exposes the L1 tag array for statistics.
func (c *Core) L1() *cache.SetAssoc { return c.l1 }

// L2 exposes the L2 tag array for statistics.
func (c *Core) L2() *cache.SetAssoc { return c.l2 }

// claimSlot picks the earliest-free slot in pool, occupies it until
// release, and returns the earliest start cycle.
func claimSlot(pool []engine.Time, earliest engine.Time) (idx int, start engine.Time) {
	best := 0
	for i, t := range pool {
		if t < pool[best] {
			best = i
		}
	}
	return best, engine.MaxTime(earliest, pool[best])
}

// access runs one load or store through the hierarchy and returns its
// completion cycle.
func (c *Core) access(va memsim.Addr, write bool, kind AccessKind) engine.Time {
	if write {
		c.Stores++
	} else {
		c.Loads++
	}
	line := uint64(memsim.Line(va))

	// L1.
	if hit, _, _ := c.l1.Access(line, write); hit {
		t := c.now + c.cfg.L1HitLatency
		c.issue1()
		return t
	}
	// L2 (fills on miss; capture the victim from this same call). The L1
	// access above already filled the line there.
	l2hit, victim, dirtyVictim := c.l2.Access(line, write)
	if l2hit {
		t := c.now + c.cfg.L2HitLatency
		c.issue1()
		return t
	}
	// L2 miss: go to the home L3 bank over the NoC.
	pool := c.slotsIrr
	if kind == Streaming {
		pool = c.slotsStream
	}
	idx, start := claimSlot(pool, c.now)
	net := c.mem.Net()
	bank := c.mem.BankOf(va)
	reqArrive := net.Send(start, c.id, bank, noc.Control, 8)
	fillDone, _ := c.mem.AccessAt(reqArrive, bank, va, write)
	respArrive := net.Send(fillDone, bank, c.id, noc.Data, memsim.LineSize)
	pool[idx] = respArrive
	if respArrive > c.done {
		c.done = respArrive
	}

	// A dirty L2 victim writes back to its own home bank.
	if dirtyVictim {
		vAddr := memsim.Addr(victim) * memsim.LineSize
		vBank := c.mem.BankOf(vAddr)
		wbArrive := net.Send(respArrive, c.id, vBank, noc.Data, memsim.LineSize)
		c.mem.AccessAt(wbArrive, vBank, vAddr, true)
	}

	c.issue1()
	if kind == Streaming {
		// The prefetcher hid the latency; the core sees an L1 hit, but
		// only after the bandwidth-limited fill slot it consumed.
		t := c.now + c.cfg.L1HitLatency
		return engine.MaxTime(t, start+c.cfg.L1HitLatency)
	}
	return respArrive
}

// issue1 charges one memory-issue cycle to the core front.
func (c *Core) issue1() {
	c.now++
}

// Load models a read of the line containing va. For Dependent kinds the
// core stalls until the value returns; otherwise only issue bandwidth and
// slot occupancy are charged.
func (c *Core) Load(va memsim.Addr, kind AccessKind) engine.Time {
	t := c.access(va, false, kind)
	if kind == Dependent {
		c.now = engine.MaxTime(c.now, t)
	}
	return t
}

// Store models a write to the line containing va.
func (c *Core) Store(va memsim.Addr, kind AccessKind) engine.Time {
	return c.access(va, true, kind)
}

// Atomic models an atomic read-modify-write (CAS, fetch-add). It acquires
// line ownership through the directory: if another core held the line
// modified, the access pays an invalidation round-trip through the home
// bank and transfers the line — the in-core contention cost of §7.2.
func (c *Core) Atomic(va memsim.Addr) engine.Time {
	c.Atomics++
	line := uint64(memsim.Line(va))
	net := c.mem.Net()
	start := c.now

	if prev, migrated := c.coh.acquire(line, c.id); migrated {
		// Invalidate the previous owner via the home bank and pull the
		// line: requester -> home (Control), home -> owner (Control),
		// owner -> requester (Data).
		bank := c.mem.BankOf(va)
		t := net.Send(start, c.id, bank, noc.Control, 8)
		t = net.Send(t, bank, prev, noc.Control, 8)
		t = net.Send(t, prev, c.id, noc.Data, memsim.LineSize)
		c.l1.Access(line, true)
		c.l2.Access(line, true)
		c.now = engine.MaxTime(c.now, t) + c.cfg.L1HitLatency
		if c.now > c.done {
			c.done = c.now
		}
		return c.now
	}
	// Unowned or already ours: a normal (dependent) RMW.
	t := c.access(va, true, Dependent)
	c.now = engine.MaxTime(c.now, t)
	return c.now
}

// Compute charges scalar ALU work (ops retired across the issue width).
func (c *Core) Compute(ops int) {
	if ops <= 0 {
		return
	}
	c.ALUOps += uint64(ops)
	c.now += engine.Time((ops + c.cfg.IssueALUOps - 1) / c.cfg.IssueALUOps)
}

// ComputeSIMD charges vector work on `elems` elements.
func (c *Core) ComputeSIMD(elems int) {
	if elems <= 0 {
		return
	}
	simdOps := (elems + c.cfg.SIMDLanes - 1) / c.cfg.SIMDLanes
	c.SIMDOps += uint64(simdOps)
	c.now += engine.Time(simdOps)
}
