// Package core implements the paper's contribution: the affinity
// allocation runtime (§3–§5). Applications describe *affinity* — which
// data should live near which — through a declarative allocator API, and
// the runtime lowers those constraints onto interleave pools, picking
// interleavings (Eq. 3), start banks, and, for irregular allocations,
// banks scored by the hybrid affinity/load-balance policy (Eq. 4).
//
// The runtime is deliberately ignorant of data structures (it sees only
// sizes, alignment parameters, and affinity addresses) and of workload
// semantics (it sees only the topology the OS reports) — the layering of
// Fig 7.
package core

import (
	"fmt"
	"math/rand"

	"affinityalloc/internal/memsim"
	"affinityalloc/internal/topo"
)

// Policy selects the irregular bank-selection policy of §5.2 / Fig 13.
type Policy int

const (
	// Rnd picks a uniformly random bank.
	Rnd Policy = iota
	// Lnr picks banks round-robin.
	Lnr
	// MinHop picks the bank with the fewest average hops to the affinity
	// addresses (Eq. 4 with H = 0).
	MinHop
	// Hybrid trades affinity against load balance per Eq. 4.
	Hybrid
)

func (p Policy) String() string {
	switch p {
	case Rnd:
		return "Rnd"
	case Lnr:
		return "Lnr"
	case MinHop:
		return "Min-Hop"
	case Hybrid:
		return "Hybrid"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// PolicyConfig is a policy plus its load-balance weight H (only used by
// Hybrid; the paper's default is Hybrid-5).
type PolicyConfig struct {
	Policy Policy
	H      float64
}

// DefaultPolicy returns the paper's default, Hybrid-5.
func DefaultPolicy() PolicyConfig { return PolicyConfig{Policy: Hybrid, H: 5} }

// MaxAffinityAddrs caps the affinity-address list per allocation (§5.1).
const MaxAffinityAddrs = 32

// AffineSpec mirrors the AffineArray struct of Fig 8(a): what to allocate
// and how it aligns to an existing array.
type AffineSpec struct {
	ElemSize int   // element size in bytes
	NumElem  int64 // number of elements
	// AlignTo is the base address of a previously allocated affine array
	// this one aligns with (zero: no inter-array affinity).
	AlignTo memsim.Addr
	// AlignP/AlignQ/AlignX define B[i] ↔ A[(AlignP/AlignQ)·i + AlignX]
	// (Eq. 2). Zero values are treated as 1/1/0. With AlignTo zero and
	// AlignX > 0, AlignX requests intra-array affinity between elements
	// i and i+AlignX (Fig 8c).
	AlignP, AlignQ int
	AlignX         int64
	// Partition forces an interleaving that spreads the array evenly
	// across all banks (Fig 9).
	Partition bool
}

func (s AffineSpec) norm() AffineSpec {
	if s.AlignP == 0 {
		s.AlignP = 1
	}
	if s.AlignQ == 0 {
		s.AlignQ = 1
	}
	return s
}

// ArrayInfo records the layout the runtime chose for an affine array.
// Workloads compute element addresses through ElemAddr so padding
// (ElemStride > ElemSize) stays transparent.
type ArrayInfo struct {
	Base       memsim.Addr
	ElemSize   int
	ElemStride int // bytes between consecutive elements (>= ElemSize)
	NumElem    int64
	// Interleave is the pool interleaving in bytes; 0 means the array
	// fell back to the baseline allocator (no placement control).
	Interleave int
	// PageMapped marks partition-style arrays using page-granularity
	// placement; Interleave then holds the per-bank chunk size.
	PageMapped bool
	StartBank  int

	pageBanks []int // for PageMapped arrays, per-page banks
}

// ElemAddr returns the address of element i.
func (a *ArrayInfo) ElemAddr(i int64) memsim.Addr {
	return a.Base + memsim.Addr(i)*memsim.Addr(a.ElemStride)
}

// Bytes returns the array's total footprint including padding.
func (a *ArrayInfo) Bytes() int64 { return a.NumElem * int64(a.ElemStride) }

// Stats counts runtime activity for reports and tests.
type Stats struct {
	AffineAllocs    uint64
	IrregularAllocs uint64
	Fallbacks       uint64 // affine requests served by the baseline allocator
	PaddedArrays    uint64
	PadBytes        uint64
	Frees           uint64
	PoolRefills     uint64
}

type addrRange struct {
	start memsim.Addr
	size  int64
}

// Runtime is the affinity allocator. It is not safe for concurrent use;
// the simulator's event loop serializes allocation.
type Runtime struct {
	space *memsim.Space
	mesh  *topo.Mesh
	pcfg  PolicyConfig
	rng   *rand.Rand

	lnrNext int

	arrays map[memsim.Addr]*ArrayInfo
	// chunks maps irregular allocations to their chunk interleave.
	chunks map[memsim.Addr]int
	// freeChunks[interleave][bank] is a stack of free chunks of that
	// pool's interleaving homed at that bank.
	freeChunks map[int][][]memsim.Addr
	// freeRanges[interleave] holds freed affine extents for reuse.
	freeRanges map[int][]addrRange

	// load tracks irregular allocations per bank (Eq. 4's load term).
	load      []int
	totalLoad int
	// affBanks and affCounts are selectBank's scratch: the distinct
	// banks of one call's affinity addresses and their multiplicities.
	affBanks, affCounts []int

	// Baseline (affinity-oblivious) allocator state.
	heapCur, heapEnd memsim.Addr
	baseFree         map[int64][]memsim.Addr

	// obs, when set, observes outermost public allocator calls (see
	// observer.go); obsDepth suppresses internal reentry.
	obs      Observer
	obsDepth int

	Stats Stats
}

// New builds a runtime over the simulated space and the topology the OS
// reports.
func New(space *memsim.Space, mesh *topo.Mesh, pcfg PolicyConfig, seed int64) (*Runtime, error) {
	if space.Banks() != mesh.Banks() {
		return nil, fmt.Errorf("core: space has %d banks, mesh %d", space.Banks(), mesh.Banks())
	}
	r := &Runtime{
		space:      space,
		mesh:       mesh,
		pcfg:       pcfg,
		rng:        rand.New(rand.NewSource(seed)),
		arrays:     make(map[memsim.Addr]*ArrayInfo),
		chunks:     make(map[memsim.Addr]int),
		freeChunks: make(map[int][][]memsim.Addr),
		freeRanges: make(map[int][]addrRange),
		load:       make([]int, mesh.Banks()),
		baseFree:   make(map[int64][]memsim.Addr),
	}
	return r, nil
}

// MustNew is New that panics on error. Callers use it only with a space
// and mesh built from the same validated config, so a mismatch here is a
// wiring bug, and the panic names that invariant.
func MustNew(space *memsim.Space, mesh *topo.Mesh, pcfg PolicyConfig, seed int64) *Runtime {
	r, err := New(space, mesh, pcfg, seed)
	if err != nil {
		panic(fmt.Sprintf("core: MustNew with a space/mesh pair from mismatched configs (programmer error — use New for untrusted pairings): %v", err))
	}
	return r
}

// Space returns the simulated address space.
func (r *Runtime) Space() *memsim.Space { return r.space }

// Mesh returns the topology.
func (r *Runtime) Mesh() *topo.Mesh { return r.mesh }

// BankOf returns the L3 bank of an allocated address.
func (r *Runtime) BankOf(addr memsim.Addr) int { return r.space.MustBank(addr) }

// LoadVector copies the per-bank irregular-allocation load.
func (r *Runtime) LoadVector() []int {
	out := make([]int, len(r.load))
	copy(out, r.load)
	return out
}

// NoteMigration keeps the Eq. 4 load vector consistent when the online
// reconciler re-homes a granule: the load the original allocation
// charged to the source bank follows the data, so subsequent
// Rnd/Lnr/MinHop/hybrid decisions score the post-migration machine
// rather than the placement history. The source's load can already be
// zero when the migrated granule was affine (never load-charged); the
// vector only moves load it actually holds.
func (r *Runtime) NoteMigration(from, to int) {
	if from == to || from < 0 || to < 0 || from >= len(r.load) || to >= len(r.load) {
		return
	}
	if r.load[from] > 0 {
		r.load[from]--
		r.load[to]++
	}
}

// ChunkOf returns the placement-unit (chunk) size of a live irregular
// allocation, and whether addr is one.
func (r *Runtime) ChunkOf(addr memsim.Addr) (int, bool) {
	c, ok := r.chunks[addr]
	return c, ok
}

// OpenPool ensures the interleave pool exists — reserving its physical
// extent and installing its IOT entry — and returns it. Allocation paths
// create pools on demand either way; this is the explicit entry point a
// placement service exposes so tenants can pre-open the interleavings
// they will allocate from.
func (r *Runtime) OpenPool(interleave int) (*memsim.Pool, error) {
	if r.obs != nil && r.obsDepth == 0 {
		r.obs.ObserveOpenPool(interleave)
	}
	return r.space.Pool(interleave)
}

// AllocBase is the baseline affinity-oblivious allocator (the `malloc`
// the Near-L3 and In-Core configurations use): a bump allocator over the
// conventional heap with size-class free lists.
func (r *Runtime) AllocBase(size int64) (memsim.Addr, error) {
	top := r.obsEnter()
	addr, err := r.allocBase(size)
	if top {
		r.obs.ObserveBase(size, addr, err)
	}
	r.obsExit()
	return addr, err
}

func (r *Runtime) allocBase(size int64) (memsim.Addr, error) {
	size = roundUp(size, memsim.LineSize)
	if lst := r.baseFree[size]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		r.baseFree[size] = lst[:len(lst)-1]
		return addr, nil
	}
	if r.heapCur+memsim.Addr(size) > r.heapEnd {
		grow := memsim.Addr(size)
		if grow < 1<<20 {
			grow = 1 << 20
		}
		base, err := r.space.HeapBrk(grow)
		if err != nil {
			return 0, err
		}
		if r.heapCur != base && r.heapCur != 0 {
			// Heap extents are contiguous by construction; keep the
			// invariant explicit.
			r.heapCur = base
		} else if r.heapCur == 0 {
			r.heapCur = base
		}
		r.heapEnd = base + grow
	}
	addr := r.heapCur
	r.heapCur += memsim.Addr(size)
	return addr, nil
}

func roundUp(v, to int64) int64 { return (v + to - 1) / to * to }

// roundUpPow2 returns the smallest power of two >= v (v > 0).
func roundUpPow2(v int64) int64 {
	p := int64(1)
	for p < v {
		p <<= 1
	}
	return p
}

// hops returns the Manhattan distance between banks.
func (r *Runtime) hops(a, b int) int { return r.mesh.Hops(a, b) }

// avgLoad returns the Eq. 4 denominator.
func (r *Runtime) avgLoad() float64 {
	return float64(r.totalLoad) / float64(len(r.load))
}

// scoreBank evaluates Eq. 4 for a candidate bank given the distinct
// affinity banks and their multiplicities.
func (r *Runtime) scoreBank(bank int, affBanks []int, affCounts []int, nAff int, h float64) float64 {
	score := 0.0
	if nAff > 0 {
		sum := 0
		for i, ab := range affBanks {
			sum += affCounts[i] * r.hops(bank, ab)
		}
		score = float64(sum) / float64(nAff)
	}
	if h != 0 {
		if avg := r.avgLoad(); avg > 0 {
			score += h * (float64(r.load[bank])/avg - 1)
		}
	}
	return score
}
