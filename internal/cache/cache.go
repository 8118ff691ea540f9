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

// A way is one uint64 entry: the line number above bit 8, then a dirty
// bit, then a 7-bit replacement field holding the LRU stack position or
// the RRPV. One word per way keeps a set's whole state in one or two host
// cache lines, and the 7-bit field bounds associativity at maxWays.
const (
	tagShift = 8
	dirtyBit = 1 << 7
	metaMask = dirtyBit - 1
	maxWays  = metaMask
)

// invalidTag marks an empty way: the all-ones line field. Line numbers
// must therefore be below 2^56-1, which memsim's 48-bit address space
// (lines below 2^42) guarantees.
const invalidTag = 1<<(64-tagShift) - 1

// maxRRPV is the saturating re-reference prediction value for 2-bit RRIP.
const maxRRPV = 3

// brripPeriod approximates p=0.03: one in every 32 fills is inserted with
// a long (rather than distant) re-reference prediction. A deterministic
// counter replaces the random draw to keep runs reproducible.
const brripPeriod = 32

// SetAssoc is a set-associative tag array. It stores no data — the
// simulated memory holds all values — only presence, dirtiness, and
// replacement state, packed into one entry per way.
type SetAssoc struct {
	sets, ways int
	repl       Replacement
	// store owns the entries until Release hands it back.
	store *[]uint64
	// e holds sets*ways entries, set-major. A set's entries mean nothing
	// until its bit in ready is set, so e is read only through set.
	e     []uint64
	ready []uint64 // one bit per set: its ways have been initialised
	empty []uint64 // emptySet[repl][:ways]; indexing emptySet in set would exceed its inlining budget
	fills uint64   // drives the bimodal insertion counter

	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// NewSetAssoc builds a tag array with the given geometry. SizeBytes must
// be divisible by ways*LineSize, ways must fit the 7-bit replacement
// field, and the resulting set count must be a power of two.
func NewSetAssoc(sizeBytes, ways int, repl Replacement) (*SetAssoc, error) {
	if ways <= 0 || ways > maxWays || sizeBytes <= 0 || sizeBytes%(ways*memsim.LineSize) != 0 {
		return nil, fmt.Errorf("cache: bad geometry size=%d ways=%d", sizeBytes, ways)
	}
	sets := sizeBytes / (ways * memsim.LineSize)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	// The storage may come back from a released array, or fresh from
	// make as all zeros (which would read as line 0); either way no
	// entry is written here. set initialises each set the first time it
	// is looked up, so a cell pays only for the sets it touches.
	st := tagPool(sets * ways).Get().(*[]uint64)
	return &SetAssoc{sets: sets, ways: ways, repl: repl, store: st, e: *st,
		ready: make([]uint64, (sets+63)/64), empty: emptySet[repl][:ways]}, nil
}

// tagPools holds one *sync.Pool of *[]uint64 per sets·ways.
var tagPools sync.Map

func tagPool(n int) *sync.Pool {
	if p, ok := tagPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := tagPools.LoadOrStore(n, &sync.Pool{New: func() any {
		e := make([]uint64, n)
		return &e
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
	tagPool(len(c.e)).Put(c.store)
	c.store, c.e, c.ready = nil, nil, nil
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

// set returns the entries of the set a line maps to. The index hash XOR
// folds the bits above the bank-interleave field into the index; without
// it, the lines homed at one bank (which share their low line bits
// modulo the interleave) would alias into a handful of sets. Real LLCs
// use similar index hashes for the same reason. The first lookup of a
// set empties it, whatever its storage held before.
func (c *SetAssoc) set(line uint64) []uint64 {
	h := line ^ line>>10 ^ line>>20 ^ line>>32
	i := int(h) & (c.sets - 1)
	set := c.e[i*c.ways : (i+1)*c.ways]
	if c.ready[i>>6]&(1<<(i&63)) == 0 {
		c.ready[i>>6] |= 1 << (i & 63)
		copy(set, c.empty)
	}
	return set
}

// emptySet holds, per policy, the ways of a set before its first lookup:
// every way invalid and clean, LRU stack positions 0…maxWays−1 (a set of
// fewer ways takes a prefix), every RRPV 0. Copying a prefix keeps set's
// one-time initialisation a builtin, so set stays inlinable.
var emptySet = func() (e [BRRIP + 1][maxWays]uint64) {
	for w := range maxWays {
		e[LRU][w] = invalidTag<<tagShift | uint64(w)
		e[BRRIP][w] = invalidTag << tagShift
	}
	return e
}()

// find returns the way holding line in set, or -1.
func find(set []uint64, line uint64) int {
	for w, e := range set {
		if e>>tagShift == line {
			return w
		}
	}
	return -1
}

// Access looks up a line (identified by line number, i.e. addr/64) and
// fills it on a miss. It returns whether the lookup hit and, when a dirty
// victim was evicted, the victim's line number.
func (c *SetAssoc) Access(line uint64, write bool) (hit bool, victim uint64, dirtyVictim bool) {
	c.Accesses++
	set := c.set(line)
	if w := find(set, line); w >= 0 {
		c.Hits++
		c.touch(set, w)
		if write {
			set[w] |= dirtyBit
		}
		return true, 0, false
	}
	c.Misses++
	w := c.victim(set)
	if e := set[w]; e&dirtyBit != 0 { // an empty way is never dirty
		victim, dirtyVictim = e>>tagShift, true
	}
	c.fill(set, w, line, write)
	return false, victim, dirtyVictim
}

// Install fills a line without touching statistics — used to model data
// already resident after initialization (warm-cache measurement windows).
// A dirty victim's state is dropped; simulated memory always holds the
// authoritative values.
func (c *SetAssoc) Install(line uint64) {
	set := c.set(line)
	if find(set, line) >= 0 {
		return
	}
	c.fill(set, c.victim(set), line, false)
}

// Probe reports whether a line is present without updating any state.
func (c *SetAssoc) Probe(line uint64) bool {
	return find(c.set(line), line) >= 0
}

// fill replaces way w with line and sets its insertion replacement state.
func (c *SetAssoc) fill(set []uint64, w int, line uint64, write bool) {
	e := line<<tagShift | set[w]&metaMask
	if write {
		e |= dirtyBit
	}
	set[w] = e
	switch c.repl {
	case LRU:
		promote(set, w)
	case BRRIP:
		c.fills++
		rrpv := uint64(maxRRPV)
		if c.fills%brripPeriod == 0 {
			rrpv = maxRRPV - 1
		}
		set[w] = set[w]&^metaMask | rrpv
	}
}

// touch updates replacement state on a hit.
func (c *SetAssoc) touch(set []uint64, w int) {
	switch c.repl {
	case LRU:
		promote(set, w)
	case BRRIP:
		set[w] &^= metaMask
	}
}

// promote makes way w most recently used: every way more recent than it
// ages by one stack position, and w takes position 0.
func promote(set []uint64, w int) {
	old := set[w] & metaMask
	for i, e := range set {
		if e&metaMask < old {
			set[i] = e + 1
		}
	}
	set[w] &^= metaMask
}

// victim picks the way to replace in set.
func (c *SetAssoc) victim(set []uint64) int {
	// Prefer an invalid way.
	if w := find(set, invalidTag); w >= 0 {
		return w
	}
	switch c.repl {
	case LRU:
		last := uint64(c.ways - 1)
		for w, e := range set {
			if e&metaMask == last {
				return w
			}
		}
		return 0
	case BRRIP:
		for {
			for w, e := range set {
				if e&metaMask >= maxRRPV {
					return w
				}
			}
			for w := range set {
				set[w]++
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
