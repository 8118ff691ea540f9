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
	var finish engine.Time
	nC := s.NumCores()

	if mode == sys.InCore {
		next := make([]int, nC)
		for c := range next {
			next[c] = c
		}
		interleaved(nC, func(c int) bool {
			qi := next[c]
			if qi >= len(queries) {
				return false
			}
			next[c] = qi + nC
			q := queries[qi]
			cc := s.Cores[c]
			found := uint64(0)
			for addr := lists[q.list].Head(); addr != 0; addr = lists[q.list].Next(addr) {
				cc.Load(addr, cpu.Dependent)
				cc.Compute(2)
				if lists[q.list].Key(addr) == q.target {
					found = 1
					break
				}
			}
			cs.addU64(found)
			return next[c] < len(queries)
		})
		finish = coreFinish(s.Cores)
		return Result{Name: w.Name(), Mode: mode, Metrics: s.Collect(finish), Checksum: cs.sum()}, nil
	}

	// NSC: one pointer-chasing stream per query, issued from the
	// querying core, windowed per core.
	type coreState struct {
		next   int
		window *stream.OpWindow
	}
	states := make([]*coreState, nC)
	for c := range states {
		states[c] = &coreState{next: c, window: stream.NewOpWindow(chaseWindow)}
	}
	interleaved(nC, func(c int) bool {
		st := states[c]
		if st.next >= len(queries) {
			return false
		}
		q := queries[st.next]
		st.next += nC
		start := st.window.Issue(0)
		ch := stream.NewChaseStream(s.SE, c)
		ch.Start(start, lists[q.list].Head())
		found := uint64(0)
		for addr := lists[q.list].Head(); addr != 0; addr = lists[q.list].Next(addr) {
			ch.Visit(addr, dstruct.ListNodeBytes)
			if lists[q.list].Key(addr) == q.target {
				found = 1
				break
			}
		}
		done := ch.Terminate()
		cs.addU64(found)
		st.window.Complete(done)
		if done > finish {
			finish = done
		}
		return st.next < len(queries)
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
	for k := int64(0); k < w.BuildRows; k++ {
		_, p, _, _ := ht.ProbePath(uint64(k)*2+1, nil)
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
	var finish engine.Time
	nC := s.NumCores()

	if mode == sys.InCore {
		next := make([]int, nC)
		for c := range next {
			next[c] = c
		}
		interleaved(nC, func(c int) bool {
			pi := next[c]
			if pi >= len(probes) {
				return false
			}
			next[c] = pi + nC
			cc := s.Cores[c]
			key := probes[pi]
			slot, p, v, ok := ht.ProbePath(key, nil)
			cc.Load(slot, cpu.Irregular)
			for _, addr := range p {
				cc.Load(addr, cpu.Dependent)
				cc.Compute(2)
			}
			if ok {
				matches++
				cs.addU64(v)
			}
			return next[c] < len(probes)
		})
		finish = coreFinish(s.Cores)
	} else {
		type coreState struct {
			next   int
			window *stream.OpWindow
		}
		states := make([]*coreState, nC)
		for c := range states {
			states[c] = &coreState{next: c, window: stream.NewOpWindow(chaseWindow)}
		}
		interleaved(nC, func(c int) bool {
			st := states[c]
			if st.next >= len(probes) {
				return false
			}
			key := probes[st.next]
			st.next += nC
			start := st.window.Issue(0)
			slot, p, v, ok := ht.ProbePath(key, nil)
			// The probe is offloaded to the bucket's bank, then chases
			// the chain; the verdict returns to the core.
			ch := stream.NewChaseStream(s.SE, c)
			ch.Start(start, slot)
			ch.Visit(slot, 8) // bucket head pointer
			for _, addr := range p {
				ch.Visit(addr, dstruct.HashNodeBytes)
			}
			done := ch.Terminate()
			if ok {
				matches++
				cs.addU64(v)
			}
			st.window.Complete(done)
			if done > finish {
				finish = done
			}
			return st.next < len(probes)
		})
	}
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
	var finish engine.Time
	nC := s.NumCores()
	paths := make([][]memsim.Addr, nC)

	if mode == sys.InCore {
		next := make([]int, nC)
		for c := range next {
			next[c] = c
		}
		interleaved(nC, func(c int) bool {
			li := next[c]
			if li >= len(lookups) {
				return false
			}
			next[c] = li + nC
			cc := s.Cores[c]
			path, found := tree.SearchPath(lookups[li], paths[c][:0])
			paths[c] = path
			for _, addr := range path {
				cc.Load(addr, cpu.Dependent)
				cc.Compute(3)
			}
			if !found {
				return true
			}
			cs.addU64(uint64(len(path)))
			return next[c] < len(lookups)
		})
		finish = coreFinish(s.Cores)
	} else {
		type coreState struct {
			next   int
			window *stream.OpWindow
		}
		states := make([]*coreState, nC)
		for c := range states {
			states[c] = &coreState{next: c, window: stream.NewOpWindow(chaseWindow)}
		}
		interleaved(nC, func(c int) bool {
			st := states[c]
			if st.next >= len(lookups) {
				return false
			}
			key := lookups[st.next]
			st.next += nC
			start := st.window.Issue(0)
			path, found := tree.SearchPath(key, paths[c][:0])
			paths[c] = path
			ch := stream.NewChaseStream(s.SE, c)
			ch.Start(start, tree.Root())
			for _, addr := range path {
				ch.Visit(addr, dstruct.BSTNodeBytes)
			}
			done := ch.Terminate()
			if found {
				cs.addU64(uint64(len(path)))
			}
			st.window.Complete(done)
			if done > finish {
				finish = done
			}
			return st.next < len(lookups)
		})
	}
	return Result{Name: w.Name(), Mode: mode, Metrics: s.Collect(finish), Checksum: cs.sum()}, nil
}
