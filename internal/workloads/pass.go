package workloads

import (
	"affinityalloc/internal/core"
	"affinityalloc/internal/cpu"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/noc"
	"affinityalloc/internal/stream"
	"affinityalloc/internal/sys"
)

// operand is one input of an elementwise pass: the element at loop index
// i reads arr[i+off] (clamped to the array). halo marks stencil operands
// that also consume their ±1 neighbors, which costs a small forward when
// a group straddles an interleave-chunk boundary.
type operand struct {
	arr  *core.ArrayInfo
	off  int64
	halo bool
}

// pass is one elementwise kernel out[i] = f(ops...[i+off]) for i in
// [0, n): the shape of every affine workload (Fig 2a and the Rodinia
// stencils). weight is compute operations per element.
type pass struct {
	ops    []operand
	out    *core.ArrayInfo
	n      int64
	weight int
}

func clampIdx(i, n int64) int64 {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// groupElems picks the pass's scheduling granularity: the elements of one
// output cache line.
func (p pass) groupElems() int64 {
	g := int64(memsim.LineSize / p.out.ElemStride)
	if g < 1 {
		g = 1
	}
	return g
}

// groupSeq is one core's group schedule: the [g0, g1) element ranges it
// processes, in processing order, computed on demand rather than stored.
// The core's contiguous range [lo, hi) is cut at multiples of group
// (so the first and last groups may be partial) into n groups, and the
// order is that list rotated left by rot.
type groupSeq struct {
	lo, hi, group int64
	n, rot        int
}

// coreGroups returns core c's group schedule. The order is the core's
// contiguous range rotated so different cores start at different offsets:
// offloaded streams (and prefetching cores) naturally slip out of
// lockstep and spread over the banks instead of camping on the same bank
// wavefront; the deterministic round-robin interleaving needs the stagger
// made explicit.
func (p pass) coreGroups(c, nC int) groupSeq {
	lo, hi := partition(p.n, nC, c)
	if lo >= hi {
		return groupSeq{}
	}
	group := p.groupElems()
	first := lo - lo%group
	n := int((hi - first + group - 1) / group)
	return groupSeq{lo: lo, hi: hi, group: group, n: n, rot: n * c / nC}
}

// at returns the i-th group in processing order, 0 <= i < n.
func (s groupSeq) at(i int) (g0, g1 int64) {
	k := i + s.rot
	if k >= s.n {
		k -= s.n
	}
	g0 = s.lo - s.lo%s.group + int64(k)*s.group
	g1 = g0 + s.group
	return max(g0, s.lo), min(g1, s.hi)
}

// chunkGroups is how many output lines a core advances per interleaved
// driver turn.
const chunkGroups = 8

// passWindow bounds in-flight groups per core (credit-based flow control
// between dependent streams, §2.2).
const passWindow = 32

// runNSC executes the pass with streams offloaded to the L3 banks,
// starting every core at cycle start, and returns the finish cycle.
func (p pass) runNSC(s *sys.System, start engine.Time) engine.Time {
	eng := s.SE
	mem := s.Mem
	nC := s.NumCores()

	type coreState struct {
		groups groupSeq
		next   int
		in     []*stream.AffineStream
		out    *stream.AffineStream
		window *stream.OpWindow
	}
	states := make([]*coreState, nC)
	for c := 0; c < nC; c++ {
		groups := p.coreGroups(c, nC)
		st := &coreState{groups: groups, window: stream.NewOpWindow(passWindow)}
		if groups.n > 0 {
			first, _ := groups.at(0)
			for _, op := range p.ops {
				base := op.arr.ElemAddr(clampIdx(first+op.off, op.arr.NumElem))
				as := stream.NewAffineStream(eng, c, base, op.arr.ElemStride, 1, p.n, false)
				as.Start(start)
				st.in = append(st.in, as)
			}
			st.out = stream.NewAffineStream(eng, c, p.out.ElemAddr(first), p.out.ElemStride, 1, p.n, true)
			st.out.Start(start)
		}
		states[c] = st
	}

	finish := start
	interleaved(nC, func(c int) bool {
		st := states[c]
		if st.next >= st.groups.n {
			return false
		}
		for g := 0; g < chunkGroups && st.next < st.groups.n; g++ {
			g0, g1 := st.groups.at(st.next)
			st.next++
			elems := int(g1 - g0)
			outBank := mem.BankOf(p.out.ElemAddr(g0))
			notBefore := st.window.Issue(start)

			var ready engine.Time
			for k, op := range p.ops {
				var opReady engine.Time
				opBank := 0
				for i := g0; i < g1; i++ {
					idx := clampIdx(i+op.off, op.arr.NumElem)
					b, t := st.in[k].AddrReady(op.arr.ElemAddr(idx), notBefore)
					opBank = b
					if t > opReady {
						opReady = t
					}
				}
				if op.halo {
					// The +1 neighbor of the group's last element may
					// live in the next interleave chunk on another
					// bank; one small forward fetches it.
					nxt := clampIdx(g1+op.off, op.arr.NumElem)
					nb := mem.BankOf(op.arr.ElemAddr(nxt))
					if nb != opBank {
						opReady = eng.Forward(opReady, nb, opBank, 8)
					}
				}
				// Forward the operand's bytes to the computing bank.
				t := eng.Forward(opReady, opBank, outBank, elems*op.arr.ElemStride)
				if t > ready {
					ready = t
				}
			}
			compDone := eng.Compute(ready, outBank, elems*p.weight)
			st.out.AddrReady(p.out.ElemAddr(g0), compDone)
			st.window.Complete(compDone)
		}
		if f := st.out.Finish(); f > finish {
			finish = f
		}
		return st.next < st.groups.n
	})
	for _, st := range states {
		if st.out == nil {
			continue
		}
		if f := st.out.Finish(); f > finish {
			finish = f
		}
		for _, in := range st.in {
			if f := in.Finish(); f > finish {
				finish = f
			}
		}
	}
	return finish
}

// runInCore executes the pass on the OOO cores with prefetched streaming
// accesses, and returns the finish cycle.
func (p pass) runInCore(s *sys.System, start engine.Time) engine.Time {
	nC := s.NumCores()

	type coreState struct {
		groups   groupSeq
		next     int
		curLines []memsim.Addr // last-touched line per operand
	}
	states := make([]*coreState, nC)
	for c := 0; c < nC; c++ {
		st := &coreState{groups: p.coreGroups(c, nC), curLines: make([]memsim.Addr, len(p.ops))}
		for k := range st.curLines {
			st.curLines[k] = ^memsim.Addr(0)
		}
		s.Cores[c].SetNow(start)
		states[c] = st
	}

	interleaved(nC, func(c int) bool {
		st := states[c]
		if st.next >= st.groups.n {
			return false
		}
		cc := s.Cores[c]
		for g := 0; g < chunkGroups && st.next < st.groups.n; g++ {
			g0, g1 := st.groups.at(st.next)
			st.next++
			elems := int(g1 - g0)
			for k, op := range p.ops {
				for i := g0; i < g1; i++ {
					addr := op.arr.ElemAddr(clampIdx(i+op.off, op.arr.NumElem))
					line := memsim.LineAddr(addr)
					if line != st.curLines[k] {
						st.curLines[k] = line
						cc.Load(line, cpu.Streaming)
					}
				}
			}
			cc.ComputeSIMD(elems * p.weight)
			cc.Store(p.out.ElemAddr(g0), cpu.Streaming)
		}
		return st.next < st.groups.n
	})
	return coreFinish(s.Cores)
}

// run dispatches on mode.
func (p pass) run(s *sys.System, mode sys.Mode, start engine.Time) engine.Time {
	if mode == sys.InCore {
		return p.runInCore(s, start)
	}
	return p.runNSC(s, start)
}

// reduceTree models each core contributing a partial scalar (already
// computed by cycle start at its tile) combined by a hop-wise tree onto
// tile 0; it returns when the total is available there. Used by srad's
// per-iteration statistics and PageRank's convergence check.
func reduceTree(s *sys.System, start engine.Time) engine.Time {
	n := s.NumCores()
	t := start
	for stride := 1; stride < n; stride *= 2 {
		var levelDone engine.Time
		for c := 0; c+stride < n; c += 2 * stride {
			arrive := s.Net.Send(t, c+stride, c, noc.Control, 8)
			if arrive > levelDone {
				levelDone = arrive
			}
		}
		if levelDone > t {
			t = levelDone
		}
		t++ // the add at each receiver
	}
	return t
}
