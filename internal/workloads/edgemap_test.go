package workloads

import (
	"errors"
	"testing"

	"affinityalloc/internal/graph"
	"affinityalloc/internal/sys"
)

// TestEdgeMapReturnsActionError: an action that fails on its k-th edge
// ends the map, no later edge runs, and run returns that error — on the
// cores and near the data alike. A queue push that overflows surfaces
// the same way.
func TestEdgeMapReturnsActionError(t *testing.T) {
	g := graph.Kronecker(8, 8, 42)
	const k = 100
	failure := errors.New("action failed")
	for _, mode := range sys.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			s, err := sys.New(sys.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Release()
			gd, err := buildGraphData(s, mode, g, nil, graphSetup{propElem: 4})
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			m := edgeMap{s: s, gd: gd, mode: mode, dir: &gd.out, from: allFrontier,
				edge: func(c *mapCore, _, v int32, _ int64) (bool, error) {
					c.update(gd.prop.ElemAddr(int64(v)))
					if calls++; calls == k {
						return false, failure
					}
					return false, nil
				}}
			if _, err := m.run(0); !errors.Is(err, failure) {
				t.Fatalf("run returned %v, want %v", err, failure)
			}
			if calls != k {
				t.Errorf("%d edges visited, want the map to stop at edge %d", calls, k)
			}

			// A two-slot queue overflows on the third push.
			cur, err := newGlobalQueue(s, 2)
			if err != nil {
				t.Fatal(err)
			}
			nxt, err := newGlobalQueue(s, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := cur.Push(g.MaxDegreeVertex()); err != nil {
				t.Fatal(err)
			}
			pushes := 0
			m = edgeMap{s: s, gd: gd, mode: mode, dir: &gd.out, from: queueFrontier, queue: frontierQueue{g: cur},
				edge: func(c *mapCore, _, v int32, _ int64) (bool, error) {
					c.update(gd.prop.ElemAddr(int64(v)))
					pushes++
					return false, c.push(frontierQueue{g: nxt}, v)
				}}
			if _, err := m.run(0); err == nil || pushes != 3 {
				t.Errorf("overflowing push: run returned %v after %d pushes, want an error at push 3", err, pushes)
			}
		})
	}
}
