package affinityd

import (
	"fmt"
	"reflect"
	"testing"

	"affinityalloc/internal/sys"
)

// TestPoolStatsMatchPlacements pins the per-pool serving counters: a
// seeded stream is driven through a live server while a second
// goroutine scrapes GET /v1/machines/{id} and /metricsz. Every scrape
// must see each pool's counters only grow, and at the end
// MachineInfo.Pools — and the pool series of /metricsz — must equal the
// allocs, frees and bytes recomputed per interleave from the wire
// replies alone.
func TestPoolStatsMatchPlacements(t *testing.T) {
	const rounds, perRound = 64, 16
	_, client := newTestServer(t)
	reg, err := client.Register(bg, MachineSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	id := reg.MachineID

	done := make(chan struct{})
	scrapeErr := make(chan error, 1)
	go func() {
		scrapeErr <- scrapePools(client, id, done)
	}()

	type placed struct {
		interleave int
		baseline   bool
	}
	live := map[string]placed{}
	want := map[int]*PoolInfo{}
	pool := func(interleave int) *PoolInfo {
		if want[interleave] == nil {
			want[interleave] = &PoolInfo{Interleave: interleave}
		}
		return want[interleave]
	}
	gen := NewStreamGen(1, 0)
	for r := 0; r < rounds; r++ {
		st := gen.NextStep(perRound)
		resp, err := client.Alloc(bg, id, st.AllocBatch, st.Allocs)
		if err != nil {
			close(done)
			t.Fatal(err)
		}
		for i, p := range resp.Placements {
			if p.Error != "" {
				continue
			}
			mode := sys.AffAlloc
			if m := st.Allocs[i].Mode; m != "" {
				if mode, err = sys.ParseMode(m); err != nil {
					close(done)
					t.Fatal(err)
				}
			}
			live[p.ID] = placed{interleave: p.Interleave, baseline: mode != sys.AffAlloc}
			pi := pool(p.Interleave)
			pi.Allocs++
			pi.Bytes += uint64(p.NumElem) * uint64(p.ElemStride)
		}
		if len(st.Frees) == 0 {
			continue
		}
		fr, err := client.Free(bg, id, st.FreeBatch, st.Frees)
		if err != nil {
			close(done)
			t.Fatal(err)
		}
		for _, res := range fr.Results {
			h, ok := live[res.ID]
			if res.Error != "" || !ok {
				continue
			}
			delete(live, res.ID)
			// Baseline-heap placements belong to no pool: releasing one
			// drops the handle and touches no pool counter.
			if !h.baseline {
				pool(h.interleave).Frees++
			}
		}
	}
	close(done)
	if err := <-scrapeErr; err != nil {
		t.Fatal(err)
	}

	info, err := client.MachineInfo(bg, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Pools) != len(want) {
		t.Fatalf("machine reports %d pools, the replies place into %d", len(info.Pools), len(want))
	}
	var totalAllocs, totalFrees uint64
	for _, got := range info.Pools {
		w := want[got.Interleave]
		if w == nil {
			t.Errorf("pool %d reported but never placed into", got.Interleave)
			continue
		}
		if got.Allocs != w.Allocs || got.Frees != w.Frees || got.Bytes != w.Bytes {
			t.Errorf("pool %d: allocs/frees/bytes = %d/%d/%d, replies say %d/%d/%d",
				got.Interleave, got.Allocs, got.Frees, got.Bytes, w.Allocs, w.Frees, w.Bytes)
		}
		totalAllocs += got.Allocs
		totalFrees += got.Frees
	}
	if totalAllocs != info.Allocs {
		t.Errorf("pools hold %d allocs, machine counts %d", totalAllocs, info.Allocs)
	}
	if totalFrees == 0 {
		t.Error("the stream freed nothing into a pool; the test drives no frees")
	}

	// /metricsz carries the same counters as series, in interleave order.
	doc, err := client.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	var interleaves, allocs, bytes []uint64
	for _, p := range info.Pools {
		interleaves = append(interleaves, uint64(p.Interleave))
		allocs = append(allocs, p.Allocs)
		bytes = append(bytes, p.Bytes)
	}
	found := false
	for _, c := range doc.Cells {
		if c.Label != "machine/"+id {
			continue
		}
		found = true
		for name, want := range map[string][]uint64{"pool_interleaves": interleaves, "pool_allocs": allocs, "pool_bytes": bytes} {
			if got := c.Series[name]; !reflect.DeepEqual(got, want) {
				t.Errorf("/metricsz %s = %v, machine info says %v", name, got, want)
			}
		}
	}
	if !found {
		t.Errorf("/metricsz has no machine/%s cell", id)
	}
}

// scrapePools polls a machine's pool counters over the wire until done
// closes, and fails if a pool disappears or any counter shrinks between
// two scrapes.
func scrapePools(client *Client, id string, done <-chan struct{}) error {
	last := map[int]PoolInfo{}
	for {
		info, err := client.MachineInfo(bg, id)
		if err != nil {
			return err
		}
		seen := map[int]bool{}
		for _, p := range info.Pools {
			seen[p.Interleave] = true
			if prev, ok := last[p.Interleave]; ok && (p.Allocs < prev.Allocs || p.Frees < prev.Frees || p.Bytes < prev.Bytes) {
				return fmt.Errorf("pool %d shrank between scrapes: %+v then %+v", p.Interleave, prev, p)
			}
			last[p.Interleave] = p
		}
		for il := range last {
			if !seen[il] {
				return fmt.Errorf("pool %d vanished between scrapes", il)
			}
		}
		doc, err := client.Metrics(bg)
		if err != nil {
			return err
		}
		if err := doc.Validate(); err != nil {
			return err
		}
		select {
		case <-done:
			return nil
		default:
		}
	}
}
