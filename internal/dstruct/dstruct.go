// Package dstruct implements the data structures the paper allocates with
// affinity — linked lists, binary search trees, chained hash tables — and
// the two co-designed structures of §4.2/§5.3: the spatially distributed
// queue and the Linked CSR graph format. Every structure lives in
// simulated memory (values are really stored and read back) and exposes
// node addresses so the timed workloads can replay traversals through the
// stream engines or cores.
package dstruct

import (
	"fmt"

	"affinityalloc/internal/core"
	"affinityalloc/internal/memsim"
)

// Alloc abstracts over the affinity allocator and the baseline allocator
// so each structure is written once and run under every configuration.
type Alloc struct {
	RT *core.Runtime
	// Affinity selects the affinity API; false uses the baseline
	// allocator and ignores affinity hints.
	Affinity bool
}

// Near allocates size bytes near the hint addresses (ignored without
// affinity).
func (a Alloc) Near(size int64, hints []memsim.Addr) (memsim.Addr, error) {
	if a.Affinity {
		return a.RT.AllocNear(size, hints)
	}
	return a.RT.AllocBase(size)
}

// Space returns the backing address space.
func (a Alloc) Space() *memsim.Space { return a.RT.Space() }

// ListNodeBytes is a list node's footprint: 8B key + 8B next.
const ListNodeBytes = 16

// List is a singly linked list of uint64 keys. With affinity, each node
// is allocated near its predecessor (the Fig 10 running example).
type List struct {
	alloc      Alloc
	head, tail memsim.Addr
	n          int
}

// NewList builds an empty list.
func NewList(alloc Alloc) *List { return &List{alloc: alloc} }

// Len returns the number of nodes.
func (l *List) Len() int { return l.n }

// Head returns the first node's address (0 when empty).
func (l *List) Head() memsim.Addr { return l.head }

// Append adds a key at the tail, allocated near the current tail.
func (l *List) Append(key uint64) (memsim.Addr, error) {
	var hints []memsim.Addr
	if l.tail != 0 {
		hints = []memsim.Addr{l.tail}
	}
	addr, err := l.alloc.Near(ListNodeBytes, hints)
	if err != nil {
		return 0, err
	}
	sp := l.alloc.Space()
	sp.WriteU64(addr, key)
	sp.WriteAddr(addr+8, 0)
	if l.tail != 0 {
		sp.WriteAddr(l.tail+8, addr)
	} else {
		l.head = addr
	}
	l.tail = addr
	l.n++
	return addr, nil
}

// Next reads a node's successor.
func (l *List) Next(addr memsim.Addr) memsim.Addr {
	return l.alloc.Space().ReadAddr(addr + 8)
}

// Key reads a node's key.
func (l *List) Key(addr memsim.Addr) uint64 {
	return l.alloc.Space().ReadU64(addr)
}

// BSTNodeBytes is a tree node's footprint: key + left + right.
const BSTNodeBytes = 24

// BST is an unbalanced binary search tree (the bin_tree workload inserts
// random keys without rebalancing, per §6).
type BST struct {
	alloc Alloc
	root  memsim.Addr
	n     int
}

// NewBST builds an empty tree.
func NewBST(alloc Alloc) *BST { return &BST{alloc: alloc} }

// Len returns the node count.
func (t *BST) Len() int { return t.n }

// Root returns the root address (0 when empty).
func (t *BST) Root() memsim.Addr { return t.root }

// Node reads a tree node.
func (t *BST) Node(addr memsim.Addr) (key uint64, left, right memsim.Addr) {
	sp := t.alloc.Space()
	return sp.ReadU64(addr), sp.ReadAddr(addr + 8), sp.ReadAddr(addr + 16)
}

// Insert adds a key (duplicates are dropped), allocating the new node
// near its parent.
func (t *BST) Insert(key uint64) error {
	sp := t.alloc.Space()
	if t.root == 0 {
		addr, err := t.alloc.Near(BSTNodeBytes, nil)
		if err != nil {
			return err
		}
		sp.WriteU64(addr, key)
		sp.WriteAddr(addr+8, 0)
		sp.WriteAddr(addr+16, 0)
		t.root = addr
		t.n++
		return nil
	}
	cur := t.root
	for {
		k, l, r := t.Node(cur)
		switch {
		case key == k:
			return nil
		case key < k:
			if l == 0 {
				addr, err := t.alloc.Near(BSTNodeBytes, []memsim.Addr{cur})
				if err != nil {
					return err
				}
				sp.WriteU64(addr, key)
				sp.WriteAddr(addr+8, 0)
				sp.WriteAddr(addr+16, 0)
				sp.WriteAddr(cur+8, addr)
				t.n++
				return nil
			}
			cur = l
		default:
			if r == 0 {
				addr, err := t.alloc.Near(BSTNodeBytes, []memsim.Addr{cur})
				if err != nil {
					return err
				}
				sp.WriteU64(addr, key)
				sp.WriteAddr(addr+8, 0)
				sp.WriteAddr(addr+16, 0)
				sp.WriteAddr(cur+16, addr)
				t.n++
				return nil
			}
			cur = r
		}
	}
}

// SearchPath returns the node addresses visited looking up key, and
// whether it was found — the trace the timed workload replays.
func (t *BST) SearchPath(key uint64, path []memsim.Addr) ([]memsim.Addr, bool) {
	cur := t.root
	for cur != 0 {
		path = append(path, cur)
		k, l, r := t.Node(cur)
		switch {
		case key == k:
			return path, true
		case key < k:
			cur = l
		default:
			cur = r
		}
	}
	return path, false
}

// HashNodeBytes is a chain node's footprint: key + value + next.
const HashNodeBytes = 24

// HashTable is a chained hash table. The bucket-head array is allocated
// with the affine API (partitioned across banks); chain nodes are
// allocated near their bucket head.
type HashTable struct {
	alloc   Alloc
	buckets *core.ArrayInfo // one Addr per bucket
	nb      int64
}

// NewHashTable builds a table with nb buckets.
func NewHashTable(alloc Alloc, nb int64) (*HashTable, error) {
	if nb <= 0 {
		return nil, fmt.Errorf("dstruct: invalid bucket count %d", nb)
	}
	spec := core.AffineSpec{ElemSize: 8, NumElem: nb, Partition: true}
	var buckets *core.ArrayInfo
	var err error
	if alloc.Affinity {
		buckets, err = alloc.RT.AllocAffine(spec)
	} else {
		var base memsim.Addr
		base, err = alloc.RT.AllocBase(8 * nb)
		buckets = &core.ArrayInfo{Base: base, ElemSize: 8, ElemStride: 8, NumElem: nb}
	}
	if err != nil {
		return nil, err
	}
	sp := alloc.Space()
	for i := int64(0); i < nb; i++ {
		sp.WriteAddr(buckets.ElemAddr(i), 0)
	}
	return &HashTable{alloc: alloc, buckets: buckets, nb: nb}, nil
}

// Hash is the table's (split-mix style) hash function, exported so
// workloads can compute bucket indexes consistently.
func Hash(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	key *= 0xc4ceb9fe1a85ec53
	key ^= key >> 33
	return key
}

// Buckets returns the bucket count.
func (h *HashTable) Buckets() int64 { return h.nb }

// BucketAddr returns the address of bucket i's head pointer.
func (h *HashTable) BucketAddr(i int64) memsim.Addr { return h.buckets.ElemAddr(i) }

// BucketOf returns key's bucket index.
func (h *HashTable) BucketOf(key uint64) int64 { return int64(Hash(key) % uint64(h.nb)) }

// Insert prepends (key, value) to its bucket's chain, allocating the node
// near the bucket head slot.
func (h *HashTable) Insert(key, value uint64) error {
	sp := h.alloc.Space()
	slot := h.BucketAddr(h.BucketOf(key))
	head := sp.ReadAddr(slot)
	addr, err := h.alloc.Near(HashNodeBytes, []memsim.Addr{slot})
	if err != nil {
		return err
	}
	sp.WriteU64(addr, key)
	sp.WriteU64(addr+8, value)
	sp.WriteAddr(addr+16, head)
	sp.WriteAddr(slot, addr)
	return nil
}

// ProbePath returns the bucket slot address, the chain node addresses
// visited probing for key, the value, and whether it was found.
func (h *HashTable) ProbePath(key uint64, path []memsim.Addr) (slot memsim.Addr, outPath []memsim.Addr, value uint64, ok bool) {
	sp := h.alloc.Space()
	slot = h.BucketAddr(h.BucketOf(key))
	for addr := sp.ReadAddr(slot); addr != 0; addr = sp.ReadAddr(addr + 16) {
		path = append(path, addr)
		if sp.ReadU64(addr) == key {
			return slot, path, sp.ReadU64(addr + 8), true
		}
	}
	return slot, path, 0, false
}
