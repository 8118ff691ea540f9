package workloads

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"affinityalloc/internal/faults"
	"affinityalloc/internal/realloc"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/telemetry"
)

// recycleCell is one run for the recycled-storage check.
type recycleCell struct {
	label string
	cfg   sys.Config
	w     Workload
	mode  sys.Mode
}

// recycleCells leave very different state behind in a machine's
// storage: dirty lines in every level, tag arrays of another length,
// a bank killed mid-run, and migrations by the reconciler.
func recycleCells() []recycleCell {
	def := sys.DefaultConfig()
	smallL3 := def
	smallL3.MemSys.BankSizeBytes = 64 << 10 // another tag-array length, and a working set past the LLC
	killed := def
	killed.Faults = faults.Spec{Kills: []faults.BankKill{{Bank: 27, At: 3000}}}
	moving := def
	moving.Realloc = realloc.Config{Epoch: 2000}.WithDefaults()
	return []recycleCell{
		{"bin_tree In-Core", def, BinTree{Keys: 4 << 10, Lookups: 8 << 10}, sys.InCore},
		{"pathfinder on a 64 KB L3 bank", smallL3, Pathfinder{Cols: 96 << 10, Steps: 2}, sys.NearL3},
		{"skew with kill-bank", killed, DefaultSkew(), sys.AffAlloc},
		{"skew with realloc", moving, DefaultSkew(), sys.AffAlloc},
	}
}

// cellBytes is a cell's Result and its metrics document, serialised.
func cellBytes(t *testing.T, c recycleCell, r Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	doc := telemetry.Document{SchemaVersion: telemetry.SchemaVersion, Seed: c.cfg.Seed}
	doc.AddCell(c.label, r.Metrics.Detail)
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecycledStorageMatchesFresh pins that a machine built on storage
// a finished run released is a fresh machine: each cell run through
// RunTraced, in two interleaved orders, matches byte for byte the same
// cell run on a system that was never released. A double Release must
// not hand the same storage out twice, which would let two caches or
// two servers of the next machine share it.
func TestRecycledStorageMatchesFresh(t *testing.T) {
	cells := recycleCells()
	// sync.Pool drops what it holds over two collections, so the
	// reference runs build on newly allocated storage.
	runtime.GC()
	runtime.GC()
	want := make([][]byte, len(cells))
	for i, c := range cells {
		s, err := sys.New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.w.Run(s, c.mode)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		want[i] = cellBytes(t, c, r)
	}
	check := func(order []int) {
		t.Helper()
		for _, i := range order {
			c := cells[i]
			r, err := RunTraced(c.cfg, c.w, c.mode, nil)
			if err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
			if got := cellBytes(t, c, r); !bytes.Equal(got, want[i]) {
				t.Errorf("order %v: %s on recycled storage differs from a fresh machine", order, c.label)
			}
		}
	}
	check([]int{0, 1, 2, 3, 0, 2})
	check([]int{3, 1, 2, 0, 1, 3})

	// Release one machine twice, then hold two at once: storage put back
	// twice would now be shared between them, and the first run would
	// leave its state in the second machine's caches.
	build := func(c recycleCell) *sys.System {
		t.Helper()
		s, err := sys.New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := build(cells[0])
	if _, err := cells[0].w.Run(s, cells[0].mode); err != nil {
		t.Fatal(err)
	}
	s.Release()
	s.Release()
	first, second := build(cells[0]), build(cells[0])
	for _, s := range []*sys.System{first, second} {
		r, err := cells[0].w.Run(s, cells[0].mode)
		if err != nil {
			t.Fatal(err)
		}
		if got := cellBytes(t, cells[0], r); !bytes.Equal(got, want[0]) {
			t.Errorf("after a double Release, %s on one of two live machines differs from a fresh machine", cells[0].label)
		}
	}
	first.Release()
	second.Release()
}
