package affinityd

import (
	"fmt"
	"math/rand"

	"affinityalloc/internal/sys"
)

// StreamGen produces one tenant's deterministic mixed alloc/free
// request stream: seeded, so the same (seed, stream) pair always yields
// the identical request sequence — the property the service-vs-library
// differential gate and the concurrent-clients determinism test build
// on, and what makes affload runs reproducible.
//
// The mix is placement-heavy with a live working set: mostly affine
// allocations (half of them carrying AlignTo edges into live arrays,
// some partitioned, some under baseline modes), a slice of irregular
// near-allocations with affinity edges, and frees that churn pool free
// lists.
type StreamGen struct {
	stream int
	rng    *rand.Rand
	next   int
	step   int

	// live affine AffAlloc handles, eligible as edge targets and frees.
	live []liveArray
}

type liveArray struct {
	id      string
	numElem int64
}

// NewStreamGen builds the generator for one stream of a seeded run.
func NewStreamGen(seed int64, stream int) *StreamGen {
	return &StreamGen{
		stream: stream,
		rng:    rand.New(rand.NewSource(seed<<16 ^ int64(stream)*0x9e3779b9)),
	}
}

// Step is one generated round: an allocation batch to POST to /alloc
// followed by IDs to POST to /free. AllocBatch and FreeBatch are the
// deterministic idempotency keys for the two wire calls: derived from
// (stream, step), so a retried or replayed step carries the same key
// and the server's dedup cache makes the retry exactly-once.
type Step struct {
	Allocs     []AllocRequest
	Frees      []string
	AllocBatch string
	FreeBatch  string
}

// StreamSteps generates a stream's first ops requests as wire rounds of
// at most batch allocations each (batch < 1 means 1): the rounds affload
// sends and ScenarioFromStream records. A stream opens no pools.
func StreamSteps(seed int64, stream, ops, batch int) []TraceStep {
	batch = max(batch, 1)
	gen := NewStreamGen(seed, stream)
	var steps []TraceStep
	for sent := 0; sent < ops; sent += batch {
		steps = append(steps, TraceStep{Step: gen.NextStep(min(batch, ops-sent))})
	}
	return steps
}

// NextStep generates the next round with n allocation requests.
func (g *StreamGen) NextStep(n int) Step {
	st := Step{
		AllocBatch: fmt.Sprintf("s%d-a%d", g.stream, g.step),
		FreeBatch:  fmt.Sprintf("s%d-f%d", g.stream, g.step),
	}
	g.step++
	for i := 0; i < n; i++ {
		st.Allocs = append(st.Allocs, g.nextAlloc())
	}
	// Free up to n/4 live handles, keeping a floor of live arrays so
	// affinity edges stay plentiful.
	for i := 0; i < n/4 && len(g.live) > 8; i++ {
		victim := g.rng.Intn(len(g.live))
		st.Frees = append(st.Frees, g.live[victim].id)
		g.live[victim] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
	}
	return st
}

func (g *StreamGen) nextAlloc() AllocRequest {
	id := fmt.Sprintf("s%d-r%d", g.stream, g.next)
	g.next++
	p := g.rng.Float64()
	switch {
	case p < 0.10 && len(g.live) > 0:
		// Irregular allocation near up to 4 elements of live arrays.
		req := AllocRequest{
			ID:   id,
			Kind: KindNear,
			Size: int64(64 << g.rng.Intn(6)), // 64B..2KB
		}
		for k := g.rng.Intn(4) + 1; k > 0; k-- {
			t := g.live[g.rng.Intn(len(g.live))]
			req.Affinity = append(req.Affinity, ElemRef{Ref: t.id, Elem: g.rng.Int63n(t.numElem)})
		}
		return req
	case p < 0.15:
		// Baseline-mode allocation: placement-oblivious heap, never an
		// edge target.
		mode := sys.NearL3
		if g.rng.Intn(2) == 0 {
			mode = sys.InCore
		}
		return AllocRequest{
			ID:       id,
			Mode:     mode.String(),
			ElemSize: 4 << g.rng.Intn(2),
			NumElem:  int64(1024 << g.rng.Intn(4)),
		}
	}
	req := AllocRequest{
		ID:       id,
		ElemSize: 4 << g.rng.Intn(2), // 4 or 8
		NumElem:  int64(1024 << g.rng.Intn(6)),
		BankProbe: []int64{
			0, g.rng.Int63n(1024), 1 << 20, // clamped to the array
		},
	}
	switch q := g.rng.Float64(); {
	case q < 0.40 && len(g.live) > 0:
		// Inter-array affinity edge, occasionally with a P/Q index ratio.
		t := g.live[g.rng.Intn(len(g.live))]
		req.AlignTo = t.id
		if g.rng.Intn(4) == 0 {
			req.AlignP, req.AlignQ = 1, 2
		}
		if g.rng.Intn(4) == 0 {
			req.AlignX = g.rng.Int63n(t.numElem)
		}
	case q < 0.50:
		// Intra-array affinity (stencil-style rows).
		req.AlignX = int64(256 << g.rng.Intn(3))
	case q < 0.60:
		req.Partition = true
	}
	g.live = append(g.live, liveArray{id: id, numElem: req.NumElem})
	return req
}
