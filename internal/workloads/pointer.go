package workloads

import (
	"math/rand"

	"affinityalloc/internal/cpu"
	"affinityalloc/internal/dstruct"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/stream"
	"affinityalloc/internal/sys"
)

// chaseWindow bounds outstanding queries per core for the NSC
// pointer-chasing workloads.
const chaseWindow = 4

// A hop is one node a pointer-chase query loads: its address and size,
// the access kind an In-Core core issues for it, and the ALU ops the
// core then spends on it.
type hop struct {
	addr  memsim.Addr
	bytes int
	kind  cpu.AccessKind
	ops   int
}

// A chaseQuery appends to hops the nodes query i visits, in order, and
// returns them with the chase's root, the address a near-stream chase is
// offloaded to. A query is lowered before the next one runs, so buffers
// may be reused from one query to the next.
type chaseQuery func(i int, hops []hop) ([]hop, memsim.Addr)

// chaseMap runs n pointer-chase queries and returns the cycle the last
// one finished. Core c takes queries c, c+nC, … in interleaved turns.
// The map owns the queries' lowering, once per configuration:
//
//   - In-Core: the core loads each hop and computes on it;
//   - Near-L3 and Aff-Alloc: one ChaseStream per query, offloaded to its
//     root and visiting every hop, with at most chaseWindow queries in
//     flight per core.
//
// Aff-Alloc differs from Near-L3 only in where the structure's nodes
// were allocated.
func chaseMap(s *sys.System, mode sys.Mode, n int, query chaseQuery) engine.Time {
	nC := s.NumCores()
	next := make([]int, nC)
	var hops []hop
	windows := make([]*stream.OpWindow, nC)
	for c := range next {
		next[c] = c
		windows[c] = stream.NewOpWindow(chaseWindow)
	}
	var finish engine.Time
	interleaved(nC, func(c int) bool {
		i := next[c]
		if i >= n {
			return false
		}
		next[c] = i + nC
		var root memsim.Addr
		hops, root = query(i, hops[:0])
		if mode == sys.InCore {
			cc := s.Cores[c]
			for _, h := range hops {
				cc.Load(h.addr, h.kind)
				cc.Compute(h.ops)
			}
			return next[c] < n
		}
		ch := stream.NewChaseStream(s.SE, c)
		ch.Start(windows[c].Issue(0), root)
		for _, h := range hops {
			ch.Visit(h.addr, h.bytes)
		}
		done := ch.Terminate()
		windows[c].Complete(done)
		finish = max(finish, done)
		return next[c] < n
	})
	if mode == sys.InCore {
		return coreFinish(s.Cores)
	}
	return finish
}

// dalloc builds the mode-appropriate dstruct allocator.
func dalloc(s *sys.System, mode sys.Mode) dstruct.Alloc {
	return dstruct.Alloc{RT: s.RT, Affinity: mode == sys.AffAlloc}
}

// preloadLines warms the lines containing each address.
func preloadLines(s *sys.System, addrs []memsim.Addr, bytes int64) {
	for _, a := range addrs {
		s.Mem.Preload(a, bytes)
	}
}

// LinkList is the link_list workload of Table 3: many long linked lists,
// each searched once for a key. Lists are built with interleaved
// appends — the realistic allocation order in which consecutive heap
// allocations belong to different lists.
type LinkList struct {
	Lists    int
	Nodes    int // nodes per list
	Queries  int // queries per list
	MissRate float64
}

// DefaultLinkList returns a host-scaled instance (Table 3: 1k lists, 512
// nodes/list, 1 query/list at paper scale).
func DefaultLinkList() LinkList { return LinkList{Lists: 250, Nodes: 256, Queries: 1} }

// PaperLinkList returns the published size.
func PaperLinkList() LinkList { return LinkList{Lists: 1000, Nodes: 512, Queries: 1} }

// Name implements Workload.
func (w LinkList) Name() string { return "link_list" }

// Run implements Workload.
func (w LinkList) Run(s *sys.System, mode sys.Mode) (Result, error) {
	alloc := dalloc(s, mode)
	rng := rand.New(rand.NewSource(workloadSeed(s, 11)))

	lists := make([]*dstruct.List, w.Lists)
	for i := range lists {
		lists[i] = dstruct.NewList(alloc)
	}
	// Interleaved append order: node j of every list before node j+1.
	addrs := make([]memsim.Addr, 0, w.Lists*w.Nodes)
	for j := 0; j < w.Nodes; j++ {
		for i := range lists {
			key := uint64(i)<<32 | uint64(j)
			a, err := lists[i].Append(key)
			if err != nil {
				return Result{}, err
			}
			addrs = append(addrs, a)
		}
	}
	preloadLines(s, addrs, dstruct.ListNodeBytes)

	// Queries: one target per list, at a random depth (or missing).
	type query struct {
		list   int
		target uint64
	}
	queries := make([]query, 0, w.Lists*w.Queries)
	for q := 0; q < w.Queries; q++ {
		for i := range lists {
			target := uint64(i)<<32 | uint64(rng.Intn(w.Nodes))
			if rng.Float64() < w.MissRate {
				target = ^uint64(0)
			}
			queries = append(queries, query{list: i, target: target})
		}
	}
	// Decorrelate query order from allocation order: which core queries
	// which list is arbitrary in a real run.
	rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })

	cs := newChecksum()
	finish := chaseMap(s, mode, len(queries), func(i int, hops []hop) ([]hop, memsim.Addr) {
		q := queries[i]
		l := lists[q.list]
		found := uint64(0)
		for addr := l.Head(); addr != 0; addr = l.Next(addr) {
			hops = append(hops, hop{addr, dstruct.ListNodeBytes, cpu.Dependent, 2})
			if l.Key(addr) == q.target {
				found = 1
				break
			}
		}
		cs.addU64(found)
		return hops, l.Head()
	})
	return Result{Name: w.Name(), Mode: mode, Metrics: s.Collect(finish), Checksum: cs.sum()}, nil
}

// HashJoin is the hash_join workload of Table 3: build a chained hash
// table on the build side, then probe it with the probe side's keys.
type HashJoin struct {
	BuildRows int64
	ProbeRows int64
	Buckets   int64
	HitRate   float64 // fraction of probes that find a match
}

// DefaultHashJoin returns a host-scaled instance (Table 3: 256k ⋈ 512k,
// hit rate 1/8, chains ≤ 8 at paper scale).
func DefaultHashJoin() HashJoin {
	return HashJoin{BuildRows: 32 << 10, ProbeRows: 64 << 10, Buckets: 8 << 10, HitRate: 1.0 / 8}
}

// PaperHashJoin returns the published size.
func PaperHashJoin() HashJoin {
	return HashJoin{BuildRows: 256 << 10, ProbeRows: 512 << 10, Buckets: 64 << 10, HitRate: 1.0 / 8}
}

// Name implements Workload.
func (w HashJoin) Name() string { return "hash_join" }

// Run implements Workload.
func (w HashJoin) Run(s *sys.System, mode sys.Mode) (Result, error) {
	alloc := dalloc(s, mode)
	rng := rand.New(rand.NewSource(workloadSeed(s, 13)))

	ht, err := dstruct.NewHashTable(alloc, w.Buckets)
	if err != nil {
		return Result{}, err
	}
	for k := int64(0); k < w.BuildRows; k++ {
		if err := ht.Insert(uint64(k)*2+1, uint64(k)); err != nil {
			return Result{}, err
		}
	}
	// Warm table into the LLC: bucket array + every chain node.
	s.Mem.Preload(ht.BucketAddr(0), 8*w.Buckets)
	var p []memsim.Addr
	for k := int64(0); k < w.BuildRows; k++ {
		_, p, _, _ = ht.ProbePath(uint64(k)*2+1, p[:0])
		preloadLines(s, p, dstruct.HashNodeBytes)
	}

	// Probe keys: HitRate of them exist (odd keys), the rest miss (even).
	probes := make([]uint64, w.ProbeRows)
	for i := range probes {
		if rng.Float64() < w.HitRate {
			probes[i] = uint64(rng.Int63n(w.BuildRows))*2 + 1
		} else {
			probes[i] = uint64(rng.Int63n(w.BuildRows*4)) * 2
		}
	}

	cs := newChecksum()
	var matches uint64
	finish := chaseMap(s, mode, len(probes), func(i int, hops []hop) ([]hop, memsim.Addr) {
		slot, path, v, ok := ht.ProbePath(probes[i], p[:0])
		p = path
		// The bucket's head pointer, then the chain.
		hops = append(hops, hop{slot, 8, cpu.Irregular, 0})
		for _, addr := range path {
			hops = append(hops, hop{addr, dstruct.HashNodeBytes, cpu.Dependent, 2})
		}
		if ok {
			matches++
			cs.addU64(v)
		}
		return hops, slot
	})
	cs.addU64(matches)
	return Result{Name: w.Name(), Mode: mode, Metrics: s.Collect(finish), Checksum: cs.sum()}, nil
}

// BinTree is the bin_tree workload of Table 3: an unbalanced binary
// search tree built by random insertion, probed by uniform lookups.
type BinTree struct {
	Keys    int
	Lookups int
}

// DefaultBinTree returns a host-scaled instance (Table 3: 128k nodes,
// 512k lookups at paper scale).
func DefaultBinTree() BinTree { return BinTree{Keys: 32 << 10, Lookups: 64 << 10} }

// PaperBinTree returns the published size.
func PaperBinTree() BinTree { return BinTree{Keys: 128 << 10, Lookups: 512 << 10} }

// Name implements Workload.
func (w BinTree) Name() string { return "bin_tree" }

// Run implements Workload.
func (w BinTree) Run(s *sys.System, mode sys.Mode) (Result, error) {
	alloc := dalloc(s, mode)
	rng := rand.New(rand.NewSource(workloadSeed(s, 17)))

	tree := dstruct.NewBST(alloc)
	keys := make([]uint64, 0, w.Keys)
	for len(keys) < w.Keys {
		k := rng.Uint64() >> 16
		if err := tree.Insert(k); err != nil {
			return Result{}, err
		}
		keys = append(keys, k)
	}
	// Warm every node line.
	var warm func(addr memsim.Addr)
	warm = func(addr memsim.Addr) {
		if addr == 0 {
			return
		}
		s.Mem.Preload(addr, dstruct.BSTNodeBytes)
		_, l, r := tree.Node(addr)
		warm(l)
		warm(r)
	}
	warm(tree.Root())

	lookups := make([]uint64, w.Lookups)
	for i := range lookups {
		lookups[i] = keys[rng.Intn(len(keys))]
	}

	cs := newChecksum()
	var p []memsim.Addr
	finish := chaseMap(s, mode, len(lookups), func(i int, hops []hop) ([]hop, memsim.Addr) {
		path, found := tree.SearchPath(lookups[i], p[:0])
		p = path
		for _, addr := range path {
			hops = append(hops, hop{addr, dstruct.BSTNodeBytes, cpu.Dependent, 3})
		}
		if found {
			cs.addU64(uint64(len(path)))
		}
		return hops, tree.Root()
	})
	return Result{Name: w.Name(), Mode: mode, Metrics: s.Collect(finish), Checksum: cs.sum()}, nil
}
