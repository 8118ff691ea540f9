package cache

import (
	"math/rand"
	"testing"

	"affinityalloc/internal/memsim"
)

// refSetAssoc is the tag array as it was before entries were packed:
// three parallel slices (tags, dirty bits, replacement state), one
// element per way. It is kept, unpooled, as the reference the packed
// SetAssoc must match access for access.
type refSetAssoc struct {
	sets, ways int
	repl       Replacement
	tags       []uint64
	dirty      []bool
	meta       []uint8
	fills      uint64

	Accesses, Hits, Misses uint64
}

const refInvalid = ^uint64(0)

func newRefSetAssoc(sizeBytes, ways int, repl Replacement) *refSetAssoc {
	sets := sizeBytes / (ways * memsim.LineSize)
	c := &refSetAssoc{
		sets: sets, ways: ways, repl: repl,
		tags:  make([]uint64, sets*ways),
		dirty: make([]bool, sets*ways),
		meta:  make([]uint8, sets*ways),
	}
	for i := range c.tags {
		c.tags[i] = refInvalid
		if repl == LRU {
			c.meta[i] = uint8(i % ways)
		}
	}
	return c
}

func (c *refSetAssoc) setOf(line uint64) int {
	h := line ^ line>>10 ^ line>>20 ^ line>>32
	return int(h) & (c.sets - 1)
}

func (c *refSetAssoc) Access(line uint64, write bool) (hit bool, victim uint64, dirtyVictim bool) {
	c.Accesses++
	base := c.setOf(line) * c.ways
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
	if c.tags[base+w] != refInvalid && c.dirty[base+w] {
		victim, dirtyVictim = c.tags[base+w], true
	}
	c.tags[base+w] = line
	c.dirty[base+w] = write
	c.insert(base, w)
	return false, victim, dirtyVictim
}

func (c *refSetAssoc) Install(line uint64) {
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

func (c *refSetAssoc) Probe(line uint64) bool {
	base := c.setOf(line) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line {
			return true
		}
	}
	return false
}

func (c *refSetAssoc) touch(base, way int) {
	switch c.repl {
	case LRU:
		c.promote(base, way)
	case BRRIP:
		c.meta[base+way] = 0
	}
}

func (c *refSetAssoc) insert(base, way int) {
	switch c.repl {
	case LRU:
		c.promote(base, way)
	case BRRIP:
		c.fills++
		if c.fills%brripPeriod == 0 {
			c.meta[base+way] = maxRRPV - 1
		} else {
			c.meta[base+way] = maxRRPV
		}
	}
}

func (c *refSetAssoc) promote(base, way int) {
	old := c.meta[base+way]
	for w := 0; w < c.ways; w++ {
		if c.meta[base+w] < old {
			c.meta[base+w]++
		}
	}
	c.meta[base+way] = 0
}

func (c *refSetAssoc) victim(base int) int {
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == refInvalid {
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

// diffAgainstRef drives the packed array and the reference with the
// same seeded sequence of Access, Install and Probe calls, writes mixed
// in, over a footprint about twice the array, and reports the first
// step at which any result or counter differs.
func diffAgainstRef(t *testing.T, sets, ways int, repl Replacement, seed int64, steps int) {
	t.Helper()
	size := sets * ways * memsim.LineSize
	got := MustSetAssoc(size, ways, repl)
	defer got.Release()
	want := newRefSetAssoc(size, ways, repl)
	rng := rand.New(rand.NewSource(seed))
	// Lines span the whole 48-bit address space's line range, so the
	// index hash's high folds and the largest tags are exercised too.
	footprint := 2 * sets * ways
	pool := make([]uint64, footprint)
	for i := range pool {
		pool[i] = uint64(rng.Int63n(int64(maxMemLine) + 1))
	}
	for step := 0; step < steps; step++ {
		line := pool[rng.Intn(len(pool))]
		switch op := rng.Intn(8); {
		case op < 5:
			write := rng.Intn(3) == 0
			h1, v1, d1 := got.Access(line, write)
			h2, v2, d2 := want.Access(line, write)
			if h1 != h2 || v1 != v2 || d1 != d2 {
				t.Fatalf("%d ways %v seed %d step %d: Access(%#x, %v) = (%v, %#x, %v), reference (%v, %#x, %v)",
					ways, repl, seed, step, line, write, h1, v1, d1, h2, v2, d2)
			}
		case op < 7:
			got.Install(line)
			want.Install(line)
		default:
			if p1, p2 := got.Probe(line), want.Probe(line); p1 != p2 {
				t.Fatalf("%d ways %v seed %d step %d: Probe(%#x) = %v, reference %v", ways, repl, seed, step, line, p1, p2)
			}
		}
		if got.Accesses != want.Accesses || got.Hits != want.Hits || got.Misses != want.Misses {
			t.Fatalf("%d ways %v seed %d step %d: counters %d/%d/%d, reference %d/%d/%d", ways, repl, seed, step,
				got.Accesses, got.Hits, got.Misses, want.Accesses, want.Hits, want.Misses)
		}
	}
	for _, line := range pool {
		if got.Probe(line) != want.Probe(line) {
			t.Fatalf("%d ways %v seed %d: final contents differ at line %#x", ways, repl, seed, line)
		}
	}
}

// maxMemLine is the largest line number of memsim's 48-bit address
// space.
const maxMemLine = (uint64(1)<<48 - 1) / memsim.LineSize

// TestSetAssocMatchesReference: the packed array agrees with the
// three-slice reference on hits, victims, dirty victims, contents and
// counters, under both policies, from direct-mapped to the widest
// associativity the replacement field holds.
func TestSetAssocMatchesReference(t *testing.T) {
	for _, ways := range []int{1, 4, 8, 16, 127} {
		for _, repl := range []Replacement{LRU, BRRIP} {
			for seed := int64(1); seed <= 3; seed++ {
				diffAgainstRef(t, 8, ways, repl, seed, 20000)
			}
		}
	}
}

// FuzzSetAssoc runs the reference differential on fuzzed geometries and
// seeds.
func FuzzSetAssoc(f *testing.F) {
	f.Add(uint8(3), uint8(8), false, int64(1))
	f.Add(uint8(0), uint8(127), true, int64(7))
	f.Fuzz(func(t *testing.T, setsLog, ways uint8, brrip bool, seed int64) {
		w := 1 + int(ways)%maxWays
		repl := LRU
		if brrip {
			repl = BRRIP
		}
		diffAgainstRef(t, 1<<(setsLog%6), w, repl, seed, 2000)
	})
}

// TestSetAssocTagBound pins the packed line field's range: every line of
// memsim's address space is below invalidTag, the largest one round-trips
// as a tag and as a dirty victim, and 128 ways are refused with the
// geometry error.
func TestSetAssocTagBound(t *testing.T) {
	if maxMemLine >= invalidTag {
		t.Fatalf("memsim's last line %#x does not fit below invalidTag %#x", maxMemLine, uint64(invalidTag))
	}
	c := MustSetAssoc(memsim.LineSize, 1, LRU)
	for _, line := range []uint64{maxMemLine, invalidTag - 1} {
		c.Access(line, true)
		if !c.Probe(line) {
			t.Errorf("line %#x not found after Access", line)
		}
		_, victim, dirty := c.Access(0, false)
		if !dirty || victim != line {
			t.Errorf("evicting line %#x reported victim %#x dirty=%v", line, victim, dirty)
		}
	}
	if _, err := NewSetAssoc(128*memsim.LineSize, 128, LRU); err == nil {
		t.Error("128 ways accepted; the replacement field holds positions up to 126")
	}
	if _, err := NewSetAssoc(127*memsim.LineSize, 127, LRU); err != nil {
		t.Errorf("127 ways refused: %v", err)
	}
}
