package workloads

import (
	"sort"

	"affinityalloc/internal/cpu"
	"affinityalloc/internal/dstruct"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/stream"
	"affinityalloc/internal/sys"
)

// An edgeMap is one traversal of a graph kernel: each frontier vertex
// walks its edges in one direction, and an algorithm's action runs at
// every edge. The map owns the traversal's lowering, once per
// configuration (Fig 2):
//
//   - In-Core: the OOO cores load the frontier, the head and every edge
//     line, interleaved in turns of a few vertices per core;
//   - Near-L3: per-core CSR index and edge AffineStreams, each edge's
//     indirect operation throttled by an OpWindow;
//   - Aff-Alloc: the same with the linked-CSR ChainStream in place of the
//     edge stream.
//
// A near-stream core keeps at most passWindow vertices in flight.
type edgeMap struct {
	s    *sys.System
	gd   *graphData
	mode sys.Mode
	dir  *edgeDir // &gd.out to push along out-edges, &gd.in to pull

	from  frontierKind
	queue frontierQueue // the queue a queueFrontier expands
	// turn is how many vertices an In-Core core advances per interleaved
	// turn; 0 means chunkVerts.
	turn int

	read vertexRead
	skip func(v int32) bool // filterRead: true skips v's edges

	edge edgeAction
	done func(c *mapCore, u int32) // optional per-vertex epilogue

	start, finish engine.Time
}

// edgeAction runs at edge k of dir.g, between the frontier vertex u and
// its neighbor v (a linked-CSR chain holds u's edges in CSR order). It
// issues exactly one indirect access, c.update or c.gather, and may then
// c.push or c.store. stop ends u's edge list; an error ends the map.
type edgeAction func(c *mapCore, u, v int32, k int64) (stop bool, err error)

// frontierKind is where an edge-map's vertices come from.
type frontierKind int

const (
	// queueFrontier hands out a queue's items under a shared dynamic
	// cursor (OpenMP dynamic scheduling: hubs cluster at low queue
	// indexes). Queued vertices are arbitrary, so a core loads their
	// heads irregularly and a head stream starts at its first element.
	queueFrontier frontierKind = iota
	// allFrontier hands out every vertex, in id order, the same way.
	allFrontier
	// partFrontier gives each core its static partition of the vertices.
	partFrontier
)

// vertexRead is a read of the vertex's own gd.prop entry that some
// traversals make before its edges.
type vertexRead int

const (
	noRead vertexRead = iota
	// valueRead reads the value the edges use, alongside the head (PR
	// push's score, which a core divides by the degree: two ALU ops).
	valueRead
	// filterRead reads it before the head and skips a vertex that skip
	// rejects (BFS pull's visited check).
	filterRead
)

// mapCore is one core's share of an edge-map; actions issue their
// accesses through it.
type mapCore struct {
	m  *edgeMap
	cc *cpu.Core // In-Core only

	// Near-stream state: frontier, vertex-read, head and edge streams.
	frontS, readS, headS, edgeS *stream.AffineStream
	chain                       *stream.ChainStream
	// ops bounds outstanding indirect operations; window, vertices in
	// flight.
	ops, window *stream.OpWindow

	// pos walks the core's vertices up to end: a cursor shared by every
	// core, or next over the core's static partition.
	pos       *int64
	next, end int64

	// The near-stream edge being visited: its ready cycle and bank, its
	// indirect access's completion and home bank; and the vertex's
	// latest completion and edge count so far.
	te, done, last   engine.Time
	eBank, home, deg int
	err              error // the first error an action returned
}

// run executes the map with every core starting at start, and returns
// the finish cycle or the first error an action returned.
func (m *edgeMap) run(start engine.Time) (engine.Time, error) {
	s, n := m.s, int64(m.dir.g.N)
	nC := s.NumCores()
	m.start, m.finish = start, start

	total := n
	if m.from == queueFrontier {
		m.queue = m.queue.view()
		total = m.queue.total()
	}
	var cursor int64
	cores := make([]mapCore, nC)
	for c := range cores {
		mc := &cores[c]
		mc.m, mc.pos, mc.end = m, &cursor, total
		if m.from == partFrontier {
			mc.pos = &mc.next
			mc.next, mc.end = partition(n, nC, c)
		}
		lo := *mc.pos
		if m.mode == sys.InCore {
			mc.cc = s.Cores[c]
			mc.cc.SetNow(start)
			continue
		}
		mc.window = stream.NewOpWindow(passWindow)
		mc.ops = stream.NewOpWindow(opWindow)
		if m.from == queueFrontier && total > 0 {
			_, first := m.queue.at(0)
			mc.frontS = stream.NewAffineStream(s.SE, c, first, 4, 1, total, false)
			mc.frontS.Start(start)
		}
		// The vertex-read and head streams cover the core's partition,
		// or the whole array.
		p, h := m.gd.prop, m.dir.head
		pn, hn := p.NumElem, h.NumElem
		if m.from == partFrontier {
			pn, hn = mc.end-lo, mc.end-lo
		}
		if m.read != noRead {
			mc.readS = stream.NewAffineStream(s.SE, c, p.ElemAddr(lo), p.ElemStride, 1, pn, false)
			mc.readS.Start(start)
		}
		mc.headS = stream.NewAffineStream(s.SE, c, h.ElemAddr(lo), h.ElemStride, 1, hn, false)
		if e := m.dir.edges; m.dir.lcsr == nil {
			mc.edgeS = stream.NewAffineStream(s.SE, c, e.Base, e.ElemStride, 1, m.dir.g.NumEdges(), false)
		} else {
			mc.chain = stream.NewChainStream(s.SE, c, passWindow)
		}
		if m.from != queueFrontier {
			mc.headS.Start(start)
		}
	}

	turn := chunkVerts
	if m.mode == sys.InCore && m.turn > 0 {
		turn = m.turn
	}
	var err error
	interleaved(nC, func(c int) bool {
		mc := &cores[c]
		for k := 0; k < turn && err == nil; k++ {
			i := *mc.pos
			if i >= mc.end {
				return false
			}
			*mc.pos++
			u, slot := int32(i), memsim.Addr(0)
			if m.from == queueFrontier {
				u, slot = m.queue.at(i)
			}
			err = m.visit(mc, u, slot)
		}
		return err == nil && *mc.pos < mc.end
	})
	if m.mode == sys.InCore {
		m.finish = coreFinish(s.Cores)
	}
	return m.finish, err
}

// visit runs vertex u, queued at slot on a queue frontier.
func (m *edgeMap) visit(c *mapCore, u int32, slot memsim.Addr) error {
	d, cc := m.dir, c.cc
	prop, head := m.gd.prop.ElemAddr(int64(u)), d.head.ElemAddr(int64(u))
	var t engine.Time
	if cc != nil {
		kind := cpu.Streaming
		if m.from == queueFrontier {
			cc.Load(slot, cpu.Streaming)
			kind = cpu.Irregular
		}
		if m.read == filterRead {
			if cc.Load(prop, cpu.Streaming); m.skip(u) {
				return nil
			}
		}
		cc.Load(head, kind)
		if m.read == valueRead {
			cc.Load(prop, cpu.Streaming)
			cc.Compute(2)
		}
	} else {
		ready := c.window.Issue(m.start)
		if m.from == queueFrontier {
			_, ready = c.frontS.AddrReady(slot, ready)
		}
		if m.read == filterRead {
			if _, ready = c.readS.AddrReady(prop, ready); m.skip(u) {
				return nil
			}
		}
		_, t = c.headS.AddrReady(head, ready)
		if m.read == valueRead {
			_, tp := c.readS.AddrReady(prop, ready)
			t = max(t, tp)
		}
		c.last, c.deg = t, 0
	}

	k := d.g.Index[u]
	if d.lcsr != nil {
		c.chain.BeginChain(t)
	chain:
		for _, node := range d.lcsr.Chains[u] {
			c.te = c.chain.VisitNode(node.Addr, d.lcsr.NodeBytes())
			c.eBank = c.chain.Bank()
			for _, v := range node.Edges {
				if !m.visitEdge(c, u, v, k) {
					break chain
				}
				k++
			}
		}
		c.chain.EndChain()
	} else {
		// A core loads each edge line once: at the list's first edge and
		// at every line boundary after it.
		perLine := int64(memsim.LineSize / m.gd.weightsPerEdge)
		for lo, hi := k, d.g.Index[u+1]; k < hi; k++ {
			if cc == nil {
				c.eBank, c.te = c.edgeS.AddrReady(d.edgeAddr(k), t)
			} else if k%perLine == 0 || k == lo {
				cc.Load(d.edgeAddr(k), cpu.Streaming)
			}
			if !m.visitEdge(c, u, d.g.Edges[k], k) {
				break
			}
		}
	}
	if c.err != nil {
		return c.err
	}
	if m.done != nil {
		m.done(c, u)
	}
	if cc == nil {
		c.window.Complete(c.last)
		m.finish = max(m.finish, c.last)
	}
	return nil
}

// visitEdge runs the action at edge k and reports whether u's edge list
// goes on. Near the data, it retires the edge's indirect access from the
// op window.
func (m *edgeMap) visitEdge(c *mapCore, u, v int32, k int64) bool {
	stop, err := m.edge(c, u, v, k)
	if err != nil {
		c.err = err
		return false
	}
	if c.cc == nil {
		c.deg++
		c.ops.Complete(c.done)
		c.last = max(c.last, c.done)
	}
	return !stop
}

// update is the edge's atomic read-modify-write of addr.
func (c *mapCore) update(addr memsim.Addr) {
	if c.cc != nil {
		c.cc.Atomic(addr)
		return
	}
	c.indirect(addr, true)
}

// gather is the edge's read of addr. A core then spends ops ALU
// operations on it; near the data, reduce combines the gathered values.
func (c *mapCore) gather(addr memsim.Addr, ops int) {
	if c.cc != nil {
		c.cc.Load(addr, cpu.Irregular)
		c.cc.Compute(ops)
		return
	}
	c.indirect(addr, false)
}

// indirect issues a near-stream edge's remote access to addr, an atomic
// write or a read whose value returns, from the edge's bank; under Fig
// 6's Ind-Ideal oracle, from addr's own bank.
func (c *mapCore) indirect(addr memsim.Addr, write bool) {
	s, from := c.m.s, c.eBank
	if c.m.gd.idealInd {
		from = s.Mem.BankOf(addr)
	}
	c.done, c.home = s.SE.RemoteOp(c.ops.Issue(c.te), from, addr, write, !write)
}

// push appends v to q once the edge's update is done.
func (c *mapCore) push(q frontierQueue, v int32) (err error) {
	c.done, err = q.push(c.m.s, c.cc, c.done, c.home, v)
	return err
}

// store writes the frontier vertex's own entry at addr once the edge's
// gather has returned.
func (c *mapCore) store(addr memsim.Addr) {
	if c.cc != nil {
		c.cc.Store(addr, cpu.Streaming)
		return
	}
	t, _ := c.m.s.SE.RemoteOp(c.done, c.eBank, addr, true, false)
	c.last = max(c.last, t)
}

// reduce writes the vertex's reduced value to addr. A core stores what
// it accumulated; near the data, the last edge's bank reduces the
// gathered values, then writes.
func (c *mapCore) reduce(addr memsim.Addr) {
	if c.cc != nil {
		c.cc.Store(addr, cpu.Streaming)
		return
	}
	if c.deg > 0 {
		se := c.m.s.SE
		c.last, _ = se.RemoteOp(se.Compute(c.last, c.eBank, c.deg), c.eBank, addr, true, false)
	}
}

// frontierQueue is a BFS/SSSP frontier queue: the conventional global
// queue, or the spatially distributed one of Fig 9.
type frontierQueue struct {
	g *dstruct.GlobalQueue
	s *dstruct.SpatialQueue
	// prefix counts, in a view, the spatial queue's items before each
	// partition.
	prefix []int64
}

// newFrontierQueues sets up a double-buffered frontier holding src. cur
// is the queue buildGraphData made, or a fresh global one when spatial is
// false under Aff-Alloc; nxt is a fresh queue of cur's kind.
func newFrontierQueues(s *sys.System, gd *graphData, spatial bool, src int32) (cur, nxt frontierQueue, err error) {
	if spatial {
		cur.s = gd.sq
		if nxt.s, err = dstruct.NewSpatialQueue(s.RT, gd.prop, int64(s.NumCores()), 1); err != nil {
			return cur, nxt, err
		}
		s.PreloadArray(nxt.s.Info())
		s.PreloadArray(nxt.s.TailsInfo())
	} else {
		if cur.g = gd.gq; cur.g == nil {
			if cur.g, err = newGlobalQueue(s, gd.prop.NumElem+1); err != nil {
				return cur, nxt, err
			}
		}
		if nxt.g, err = newGlobalQueue(s, gd.prop.NumElem+1); err != nil {
			return cur, nxt, err
		}
	}
	_, _, err = cur.add(src)
	return cur, nxt, err
}

func (q frontierQueue) add(v int32) (tail, slot memsim.Addr, err error) {
	if q.s != nil {
		return q.s.Push(v)
	}
	return q.g.Push(v)
}

func (q frontierQueue) reset() {
	if q.s != nil {
		q.s.Reset()
	} else {
		q.g.Reset()
	}
}

// push appends v. On core cc it is an atomic on the tail, then the slot
// store. Near the data it follows an update that completed at t on
// vBank, and returns the push's completion: the spatial queue's tail and
// slot are on the vertex's bank; the global queue's tail is bumped at
// its bank, and the slot written wherever the tail points (Fig 2c).
func (q frontierQueue) push(s *sys.System, cc *cpu.Core, t engine.Time, vBank int, v int32) (engine.Time, error) {
	tail, slot, err := q.add(v)
	switch {
	case err != nil:
		return 0, err
	case cc != nil:
		cc.Atomic(tail)
		cc.Store(slot, cpu.Irregular)
		return 0, nil
	}
	t, tailBank := s.SE.RemoteOp(t, vBank, tail, true, false)
	if q.s != nil {
		tailBank = vBank
	}
	t, _ = s.SE.RemoteOp(t, tailBank, slot, true, false)
	return t, nil
}

// view snapshots q for dynamic scheduling: the spatial queue's
// partitions are concatenated in partition order.
func (q frontierQueue) view() frontierQueue {
	if q.s != nil {
		lens := q.s.Lens()
		q.prefix = make([]int64, len(lens)+1)
		for p, l := range lens {
			q.prefix[p+1] = q.prefix[p] + l
		}
	}
	return q
}

// total is a view's item count.
func (q frontierQueue) total() int64 {
	if q.s == nil {
		return q.g.Len()
	}
	return q.prefix[len(q.prefix)-1]
}

// at returns a view's item i and its slot's address.
func (q frontierQueue) at(i int64) (int32, memsim.Addr) {
	if q.s == nil {
		return q.g.Get(i), q.g.SlotAddr(i)
	}
	p := sort.Search(len(q.prefix)-1, func(p int) bool { return q.prefix[p+1] > i })
	j := i - q.prefix[p]
	return q.s.Get(int64(p), j), q.s.SlotAddr(int64(p), j)
}
