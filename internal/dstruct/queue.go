package dstruct

import (
	"fmt"

	"affinityalloc/internal/core"
	"affinityalloc/internal/memsim"
)

// GlobalQueue is the conventional shared work queue the Near-L3 graph
// workloads use: one tail counter (a single hot address) plus a storage
// array laid out by the baseline allocator.
type GlobalQueue struct {
	space *memsim.Space
	tail  memsim.Addr     // 8B counter
	data  *core.ArrayInfo // int32 slots
	cap   int64
}

// NewGlobalQueue builds a queue with cap int32 slots using the baseline
// allocator.
func NewGlobalQueue(rt *core.Runtime, cap int64) (*GlobalQueue, error) {
	tail, err := rt.AllocBase(8)
	if err != nil {
		return nil, err
	}
	base, err := rt.AllocBase(4 * cap)
	if err != nil {
		return nil, err
	}
	q := &GlobalQueue{
		space: rt.Space(),
		tail:  tail,
		data:  &core.ArrayInfo{Base: base, ElemSize: 4, ElemStride: 4, NumElem: cap},
		cap:   cap,
	}
	q.Reset()
	return q, nil
}

// Reset empties the queue.
func (q *GlobalQueue) Reset() { q.space.WriteU64(q.tail, 0) }

// Len returns the element count.
func (q *GlobalQueue) Len() int64 { return int64(q.space.ReadU64(q.tail)) }

// TailAddr returns the tail counter's address (the contended line).
func (q *GlobalQueue) TailAddr() memsim.Addr { return q.tail }

// SlotAddr returns the address of slot i.
func (q *GlobalQueue) SlotAddr(i int64) memsim.Addr { return q.data.ElemAddr(i) }

// Push appends v, returning the tail counter address and the written
// slot address for timing replay.
func (q *GlobalQueue) Push(v int32) (tailAddr, slotAddr memsim.Addr, err error) {
	idx := int64(q.space.ReadU64(q.tail))
	if idx >= q.cap {
		return 0, 0, fmt.Errorf("dstruct: global queue overflow (%d)", q.cap)
	}
	q.space.WriteU64(q.tail, uint64(idx+1))
	slotAddr = q.data.ElemAddr(idx)
	q.space.WriteU32(slotAddr, uint32(v))
	return q.tail, slotAddr, nil
}

// Get reads slot i.
func (q *GlobalQueue) Get(i int64) int32 { return int32(q.space.ReadU32(q.data.ElemAddr(i))) }

// SpatialQueue is the spatially distributed work queue of Fig 9: one
// sub-queue per partition of an aligned vertex array, with the sub-queue
// storage and tail counter colocated with the vertices they index, so a
// push lands on the bank that just updated the vertex.
type SpatialQueue struct {
	space    *memsim.Space
	parts    int64
	perPart  int64
	numElems int64
	data     *core.ArrayInfo // int32 slots, aligned to the vertex array
	tails    *core.ArrayInfo // int64 tails, one per partition
}

// NewSpatialQueue builds a queue aligned to the partitioned array vInfo
// (one sub-queue per partition; parts should normally equal the bank
// count — mismatch is supported per §4.2 but balances worse). slack
// scales each sub-queue's capacity beyond its partition's vertex count,
// for workloads that push a vertex more than once (sssp).
func NewSpatialQueue(rt *core.Runtime, vInfo *core.ArrayInfo, parts, slack int64) (*SpatialQueue, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("dstruct: invalid partition count %d", parts)
	}
	if slack < 1 {
		slack = 1
	}
	n := vInfo.NumElem
	vertsPerPart := (n + parts - 1) / parts
	perPart := vertsPerPart * slack
	// Q aligned to V so that slot j of partition p — Q[p*perPart+j] —
	// lies with partition p's vertices (Fig 9): Q[i] aligns V[i/slack].
	data, err := rt.AllocAffine(core.AffineSpec{
		ElemSize: 4, NumElem: parts * perPart,
		AlignTo: vInfo.Base, AlignP: 1, AlignQ: int(slack),
	})
	if err != nil {
		return nil, err
	}
	// T[parts] with T[p] aligned to V[p*N/parts].
	tails, err := rt.AllocAffine(core.AffineSpec{
		ElemSize: 8, NumElem: parts,
		AlignTo: vInfo.Base, AlignP: int(vertsPerPart), AlignQ: 1,
	})
	if err != nil {
		return nil, err
	}
	q := &SpatialQueue{
		space:    rt.Space(),
		parts:    parts,
		perPart:  perPart,
		numElems: n,
		data:     data,
		tails:    tails,
	}
	q.Reset()
	return q, nil
}

// Reset empties all sub-queues.
func (q *SpatialQueue) Reset() {
	for p := int64(0); p < q.parts; p++ {
		q.space.WriteU64(q.tails.ElemAddr(p), 0)
	}
}

// Parts returns the partition count.
func (q *SpatialQueue) Parts() int64 { return q.parts }

// PartOf returns the partition owning vertex v.
func (q *SpatialQueue) PartOf(v int32) int64 {
	p := int64(v) * q.parts / q.numElems
	if p >= q.parts {
		p = q.parts - 1
	}
	return p
}

// Push appends v to its partition's sub-queue, returning the tail and
// slot addresses for timing replay.
func (q *SpatialQueue) Push(v int32) (tailAddr, slotAddr memsim.Addr, err error) {
	p := q.PartOf(v)
	tailAddr = q.tails.ElemAddr(p)
	idx := int64(q.space.ReadU64(tailAddr))
	if idx >= q.perPart {
		return 0, 0, fmt.Errorf("dstruct: sub-queue %d overflow (%d)", p, q.perPart)
	}
	q.space.WriteU64(tailAddr, uint64(idx+1))
	slotAddr = q.data.ElemAddr(p*q.perPart + idx)
	q.space.WriteU32(slotAddr, uint32(v))
	return tailAddr, slotAddr, nil
}

// Lens returns the per-partition element counts.
func (q *SpatialQueue) Lens() []int64 {
	out := make([]int64, q.parts)
	for p := int64(0); p < q.parts; p++ {
		out[p] = int64(q.space.ReadU64(q.tails.ElemAddr(p)))
	}
	return out
}

// Len returns the total element count.
func (q *SpatialQueue) Len() int64 {
	var total int64
	for _, l := range q.Lens() {
		total += l
	}
	return total
}

// Get reads slot i of partition p.
func (q *SpatialQueue) Get(p, i int64) int32 {
	return int32(q.space.ReadU32(q.data.ElemAddr(p*q.perPart + i)))
}

// SlotAddr returns the address of slot i of partition p.
func (q *SpatialQueue) SlotAddr(p, i int64) memsim.Addr {
	return q.data.ElemAddr(p*q.perPart + i)
}

// Info exposes the queue's storage array layout (for preloading).
func (q *SpatialQueue) Info() *core.ArrayInfo { return q.data }

// TailsInfo exposes the tails array layout (for preloading).
func (q *SpatialQueue) TailsInfo() *core.ArrayInfo { return q.tails }
