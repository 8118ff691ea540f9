// Package cache models the simulated cache hierarchy of Table 2: private
// L1/L2 caches with LRU replacement, a 64-bank shared static-NUCA L3 with
// bimodal RRIP replacement, and DRAM channels attached at the mesh
// corners. It tracks the hit/miss and occupancy statistics the paper's
// evaluation reports (e.g. the L3 miss rates of Figs 15 and 16).
package cache

import (
	"fmt"
	"sync"

	"affinityalloc/internal/memsim"
)

// Replacement selects a replacement policy for a set-associative array.
type Replacement int

const (
	// LRU is least-recently-used, used by the private caches.
	LRU Replacement = iota
	// BRRIP is bimodal re-reference interval prediction, used by the L3
	// banks (Table 2: "Bimodal RRIP, p = 0.03").
	BRRIP
)

const invalidTag = ^uint64(0)

// maxRRPV is the saturating re-reference prediction value for 2-bit RRIP.
const maxRRPV = 3

// brripPeriod approximates p=0.03: one in every 32 fills is inserted with
// a long (rather than distant) re-reference prediction. A deterministic
// counter replaces the random draw to keep runs reproducible.
const brripPeriod = 32

// SetAssoc is a set-associative tag array. It stores no data — the
// simulated memory holds all values — only presence, dirtiness, and
// replacement state.
type SetAssoc struct {
	sets, ways int
	repl       Replacement
	// store owns tags, dirty and meta until Release hands it back.
	store *tagStore
	tags  []uint64 // sets*ways, line numbers
	dirty []bool
	meta  []uint8 // LRU stack position or RRPV
	fills uint64  // drives the bimodal insertion counter

	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// NewSetAssoc builds a tag array with the given geometry. SizeBytes must
// be divisible by ways*LineSize and the resulting set count must be a
// power of two.
func NewSetAssoc(sizeBytes, ways int, repl Replacement) (*SetAssoc, error) {
	if ways <= 0 || sizeBytes <= 0 || sizeBytes%(ways*memsim.LineSize) != 0 {
		return nil, fmt.Errorf("cache: bad geometry size=%d ways=%d", sizeBytes, ways)
	}
	sets := sizeBytes / (ways * memsim.LineSize)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	st := tagPool(sets * ways).Get().(*tagStore)
	c := &SetAssoc{
		sets: sets, ways: ways, repl: repl,
		store: st,
		tags:  st.tags,
		dirty: st.dirty,
		meta:  st.meta,
	}
	// Storage may come back from a released array, so every entry is set
	// here, recycled or not.
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.dirty)
	if repl == LRU {
		// Give each way a distinct initial LRU stack position.
		for s := 0; s < sets; s++ {
			for w := 0; w < ways; w++ {
				c.meta[s*ways+w] = uint8(w)
			}
		}
	} else {
		clear(c.meta)
	}
	return c, nil
}

// tagStore is one array's tag, dirty and replacement storage, recycled
// whole through a per-length pool.
type tagStore struct {
	tags  []uint64
	dirty []bool
	meta  []uint8
}

// tagPools holds one *sync.Pool of *tagStore per sets·ways.
var tagPools sync.Map

func tagPool(n int) *sync.Pool {
	if p, ok := tagPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := tagPools.LoadOrStore(n, &sync.Pool{New: func() any {
		return &tagStore{tags: make([]uint64, n), dirty: make([]bool, n), meta: make([]uint8, n)}
	}})
	return p.(*sync.Pool)
}

// Release hands the array's storage back for another array of the same
// size to reuse. The array must not be accessed afterwards; its counters
// stay readable. Releasing twice does nothing.
func (c *SetAssoc) Release() {
	if c.store == nil {
		return
	}
	tagPool(len(c.tags)).Put(c.store)
	c.store, c.tags, c.dirty, c.meta = nil, nil, nil, nil
}

// MustSetAssoc is NewSetAssoc that panics on error.
func MustSetAssoc(sizeBytes, ways int, repl Replacement) *SetAssoc {
	c, err := NewSetAssoc(sizeBytes, ways, repl)
	if err != nil {
		panic(err)
	}
	return c
}

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// setOf hashes the line number into a set index. The XOR fold mixes the
// bits above the bank-interleave field into the index; without it, the
// lines homed at one bank (which share their low line bits modulo the
// interleave) would alias into a handful of sets. Real LLCs use similar
// index hashes for the same reason.
func (c *SetAssoc) setOf(line uint64) int {
	h := line ^ line>>10 ^ line>>20 ^ line>>32
	return int(h) & (c.sets - 1)
}

// Access looks up a line (identified by line number, i.e. addr/64) and
// fills it on a miss. It returns whether the lookup hit and, when a dirty
// victim was evicted, the victim's line number.
func (c *SetAssoc) Access(line uint64, write bool) (hit bool, victim uint64, dirtyVictim bool) {
	c.Accesses++
	set := c.setOf(line)
	base := set * c.ways

	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line {
			c.Hits++
			c.touch(base, w)
			if write {
				c.dirty[base+w] = true
			}
			return true, 0, false
		}
	}
	c.Misses++
	w := c.victim(base)
	if c.tags[base+w] != invalidTag && c.dirty[base+w] {
		victim, dirtyVictim = c.tags[base+w], true
	}
	c.tags[base+w] = line
	c.dirty[base+w] = write
	c.insert(base, w)
	return false, victim, dirtyVictim
}

// Install fills a line without touching statistics — used to model data
// already resident after initialization (warm-cache measurement windows).
// A dirty victim's state is dropped; simulated memory always holds the
// authoritative values.
func (c *SetAssoc) Install(line uint64) {
	base := c.setOf(line) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line {
			return
		}
	}
	w := c.victim(base)
	c.tags[base+w] = line
	c.dirty[base+w] = false
	c.insert(base, w)
}

// Probe reports whether a line is present without updating any state.
func (c *SetAssoc) Probe(line uint64) bool {
	base := c.setOf(line) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line {
			return true
		}
	}
	return false
}

// touch updates replacement state on a hit.
func (c *SetAssoc) touch(base, way int) {
	switch c.repl {
	case LRU:
		old := c.meta[base+way]
		for w := 0; w < c.ways; w++ {
			if c.meta[base+w] < old {
				c.meta[base+w]++
			}
		}
		c.meta[base+way] = 0
	case BRRIP:
		c.meta[base+way] = 0
	}
}

// insert sets replacement state for a newly filled way.
func (c *SetAssoc) insert(base, way int) {
	switch c.repl {
	case LRU:
		old := c.meta[base+way]
		for w := 0; w < c.ways; w++ {
			if c.meta[base+w] < old {
				c.meta[base+w]++
			}
		}
		c.meta[base+way] = 0
	case BRRIP:
		c.fills++
		if c.fills%brripPeriod == 0 {
			c.meta[base+way] = maxRRPV - 1
		} else {
			c.meta[base+way] = maxRRPV
		}
	}
}

// victim picks the way to replace in the set at base.
func (c *SetAssoc) victim(base int) int {
	// Prefer an invalid way.
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == invalidTag {
			return w
		}
	}
	switch c.repl {
	case LRU:
		for w := 0; w < c.ways; w++ {
			if c.meta[base+w] == uint8(c.ways-1) {
				return w
			}
		}
		return 0
	case BRRIP:
		for {
			for w := 0; w < c.ways; w++ {
				if c.meta[base+w] >= maxRRPV {
					return w
				}
			}
			for w := 0; w < c.ways; w++ {
				c.meta[base+w]++
			}
		}
	}
	return 0
}

// MissRate returns misses/accesses, or 0 before any access.
func (c *SetAssoc) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}
