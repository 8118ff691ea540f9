package main

import (
	"fmt"
	"math/rand"
	"time"

	"affinityalloc/internal/core"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/stream"
	"affinityalloc/internal/sys"
)

// opWindowDepth is the outstanding-operation window the workloads give
// each stream (Table 2's 12-stream SEcore).
const opWindowDepth = 12

// chaseNodeBytes is one list node: a line.
const chaseNodeBytes = 64

// kernelStream times the stream engine's three access patterns from
// outside: an affine stream over a resident array, a pointer chase over
// an AllocNear-placed list, and remote operations at seeded addresses.
// Every round builds a fresh system, so no schedule carries over.
func kernelStream(r *result, seed int64, sz sizing) error {
	var affine, chase, remote []float64
	for round := 0; round < sz.KernelRounds; round++ {
		ns, err := streamAffineRound(seed, sz.KernelN)
		if err != nil {
			return err
		}
		affine = append(affine, ns)
		if ns, err = streamChaseRound(seed, sz.KernelN/16); err != nil {
			return err
		}
		chase = append(chase, ns)
		if ns, err = streamRemoteRound(seed, sz.KernelN/4); err != nil {
			return err
		}
		remote = append(remote, ns)
	}
	r.Values["stream.affine_ns_per_elem"] = median(affine)
	r.Values["stream.chase_ns_per_visit"] = median(chase)
	r.Values["stream.remote_op_ns"] = median(remote)
	return nil
}

// streamAffineRound reads n 4-byte elements of an Aff-Alloc array
// through one affine stream and returns host ns per element.
func streamAffineRound(seed, n int64) (float64, error) {
	s, err := newSystem(seed)
	if err != nil {
		return 0, err
	}
	a, err := s.Alloc(sys.AffAlloc, core.AffineSpec{ElemSize: 4, NumElem: n})
	if err != nil {
		return 0, err
	}
	s.Mem.Preload(a.Base, a.Bytes())
	t0 := time.Now()
	st := stream.NewAffineStream(s.SE, 0, a.Base, a.ElemStride, 1, n, false)
	for i := int64(0); i < n; i++ {
		st.ElemReady(i, 0)
	}
	d := time.Since(t0)
	if st.Finish() == 0 {
		return 0, fmt.Errorf("affine stream over %d elements finished at cycle 0", n)
	}
	return float64(d) / float64(n), nil
}

// streamChaseRound visits an n-node list whose every node was placed by
// AllocNear next to a seeded earlier node, and returns host ns per visit.
func streamChaseRound(seed, n int64) (float64, error) {
	s, err := newSystem(seed)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]memsim.Addr, 0, n)
	for i := int64(0); i < n; i++ {
		var near []memsim.Addr
		if i > 0 {
			near = []memsim.Addr{nodes[rng.Int63n(i)]}
		}
		a, err := s.AllocNear(chaseNodeBytes, near)
		if err != nil {
			return 0, err
		}
		s.Mem.Preload(a, chaseNodeBytes)
		nodes = append(nodes, a)
	}
	t0 := time.Now()
	cs := stream.NewChaseStream(s.SE, 0)
	for _, a := range nodes {
		cs.Visit(a, chaseNodeBytes)
	}
	d := time.Since(t0)
	if cs.Visits() != uint64(n) {
		return 0, fmt.Errorf("chase stream made %d visits, want %d", cs.Visits(), n)
	}
	return float64(d) / float64(n), nil
}

// streamRemoteRound issues n remote operations from seeded banks to
// seeded elements of a resident array, half of them writes and a
// quarter awaiting a response, and returns host ns per operation.
func streamRemoteRound(seed, n int64) (float64, error) {
	s, err := newSystem(seed)
	if err != nil {
		return 0, err
	}
	a, err := s.Alloc(sys.AffAlloc, core.AffineSpec{ElemSize: 8, NumElem: n})
	if err != nil {
		return 0, err
	}
	s.Mem.Preload(a.Base, a.Bytes())
	rng := rand.New(rand.NewSource(seed))
	from := make([]int, n)
	target := make([]memsim.Addr, n)
	for i := range from {
		from[i] = rng.Intn(len(s.Cores))
		target[i] = a.ElemAddr(rng.Int63n(n))
	}
	win := stream.NewOpWindow(opWindowDepth)
	var last engine.Time
	t0 := time.Now()
	for i := range from {
		at := win.Issue(engine.Time(i))
		last, _ = s.SE.RemoteOp(at, from[i], target[i], i%2 == 0, i%4 == 0)
		win.Complete(last)
	}
	d := time.Since(t0)
	if last == 0 {
		return 0, fmt.Errorf("%d remote operations completed at cycle 0", n)
	}
	return float64(d) / float64(n), nil
}
