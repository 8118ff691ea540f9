package affinityd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"affinityalloc/internal/core"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/sys"
)

// bg is the default request context tests drive client calls with.
var bg = context.Background()

func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, NewClient(ts.URL)
}

// TestServerEndToEnd walks the whole wire API once: register, open a
// pool, place an affinity graph in one batch, read it back, free it,
// deregister.
func TestServerEndToEnd(t *testing.T) {
	srv, client := newTestServer(t)

	if !client.Healthy(bg) {
		t.Fatal("server not healthy")
	}
	reg, err := client.Register(bg, MachineSpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Version != APIVersion || reg.Banks == 0 || reg.MachineID == "" {
		t.Fatalf("bad register response: %+v", reg)
	}

	pool, err := client.OpenPool(bg, reg.MachineID, 64)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Pool.Interleave != 64 || pool.Pool.Start == 0 {
		t.Fatalf("bad pool: %+v", pool.Pool)
	}

	// One batch carrying an affinity hint graph: b and c align to a, n
	// near an element of a — edges reference IDs placed earlier in the
	// same batch.
	probes := []int64{0, 100, 4095}
	resp, err := client.Alloc(bg, reg.MachineID, "", []AllocRequest{
		{ID: "a", ElemSize: 4, NumElem: 1 << 12, BankProbe: probes},
		{ID: "b", ElemSize: 4, NumElem: 1 << 12, AlignTo: "a", BankProbe: probes},
		{ID: "c", ElemSize: 8, NumElem: 1 << 12, AlignTo: "a", BankProbe: probes},
		{ID: "n", Kind: KindNear, Size: 64, Affinity: []ElemRef{{Ref: "a", Elem: 500}}},
		{ID: "h", Mode: "In-Core", ElemSize: 4, NumElem: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Placements) != 5 {
		t.Fatalf("got %d placements, want 5", len(resp.Placements))
	}
	byID := map[string]Placement{}
	for _, p := range resp.Placements {
		if p.Error != "" {
			t.Fatalf("placement %s failed: %s", p.ID, p.Error)
		}
		byID[p.ID] = p
	}
	// The Fig-8 contract over the wire: aligned arrays report the same
	// probe banks, and the double-width array doubles its interleaving.
	for i := range probes {
		if byID["a"].Banks[i] != byID["b"].Banks[i] || byID["a"].Banks[i] != byID["c"].Banks[i] {
			t.Errorf("probe %d not colocated: a=%v b=%v c=%v", i, byID["a"].Banks, byID["b"].Banks, byID["c"].Banks)
		}
	}
	if byID["c"].Interleave != 2*byID["a"].Interleave {
		t.Errorf("c interleave %d, want double a's %d", byID["c"].Interleave, byID["a"].Interleave)
	}
	if byID["h"].Interleave != 0 {
		t.Errorf("baseline placement reports interleave %d, want 0", byID["h"].Interleave)
	}

	info, err := client.MachineInfo(bg, reg.MachineID)
	if err != nil {
		t.Fatal(err)
	}
	if info.LiveHandles != 5 || info.Allocs != 5 {
		t.Errorf("info = %+v, want 5 live handles / 5 allocs", info)
	}

	free, err := client.Free(bg, reg.MachineID, "", []string{"n", "h", "c", "b", "a", "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range free.Results {
		if (r.Error != "") != (r.ID == "ghost") {
			t.Errorf("free %s: error %q", r.ID, r.Error)
		}
	}

	doc, err := client.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Validate(); err != nil {
		t.Errorf("metrics document invalid: %v", err)
	}
	if srv.Requests() == 0 {
		t.Error("request counter never moved")
	}

	if err := client.Deregister(bg, reg.MachineID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.MachineInfo(bg, reg.MachineID); err == nil {
		t.Error("deregistered machine still answers")
	}
}

// TestServerRejectsBadRequests pins the error surface: unknown
// machines, unknown fields (wire compatibility is explicit, not
// accidental), bad kinds, dead edges, empty batches.
func TestServerRejectsBadRequests(t *testing.T) {
	_, client := newTestServer(t)
	reg, err := client.Register(bg, MachineSpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := client.Alloc(bg, "m999999", "", []AllocRequest{{ID: "a", ElemSize: 4, NumElem: 8}}); err == nil {
		t.Error("alloc on unknown machine succeeded")
	}
	if _, err := client.Alloc(bg, reg.MachineID, "", nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := client.Register(bg, MachineSpec{Policy: "nonsense"}); err == nil {
		t.Error("bad policy accepted")
	}
	if _, err := client.Register(bg, MachineSpec{Faults: "nonsense"}); err == nil {
		t.Error("bad fault spec accepted")
	}
	if _, err := client.OpenPool(bg, reg.MachineID, -64); err == nil {
		t.Error("negative interleave accepted")
	}

	// Per-request failures don't fail the batch.
	resp, err := client.Alloc(bg, reg.MachineID, "", []AllocRequest{
		{ID: "ok", ElemSize: 4, NumElem: 8},
		{ID: "", ElemSize: 4, NumElem: 8},
		{ID: "ok", ElemSize: 4, NumElem: 8}, // duplicate live ID
		{ID: "k", Kind: "wat"},
		{ID: "e", ElemSize: 4, NumElem: 8, AlignTo: "ghost"},
		// A near placement is an affinity target; a baseline-heap one is not.
		{ID: "n1", Kind: KindNear, Size: 64},
		{ID: "n2", Kind: KindNear, Size: 64, Affinity: []ElemRef{{Ref: "n1"}}},
		{ID: "heap", Mode: sys.NearL3.String(), ElemSize: 1, NumElem: 64},
		{ID: "n3", Kind: KindNear, Size: 64, Affinity: []ElemRef{{Ref: "heap"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantErr := []bool{false, true, true, true, true, false, false, false, true}
	for i, p := range resp.Placements {
		if (p.Error != "") != wantErr[i] {
			t.Errorf("placement %d: error %q, want error=%v", i, p.Error, wantErr[i])
		}
	}

	// Unknown fields are rejected — compatibility is versioned, not silent.
	ts := httptest.NewServer(NewServer(Options{}))
	defer ts.Close()
	body := `{"machine": {"seed": 1, "wat": true}}`
	hresp, err := http.Post(ts.URL+"/v1/machines", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field got %d, want 400", hresp.StatusCode)
	}
}

// directExec replays a request stream straight against sys.System — an
// independent reimplementation of the placement semantics with no
// affinityd serving machinery, used as the differential oracle.
type directExec struct {
	s        *sys.System
	infos    map[string]*core.ArrayInfo
	bases    map[string]memsim.Addr
	baseline map[string]bool
}

func newDirectExec(t *testing.T, spec MachineSpec) *directExec {
	t.Helper()
	cfg, err := buildConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sys.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &directExec{
		s:        s,
		infos:    map[string]*core.ArrayInfo{},
		bases:    map[string]memsim.Addr{},
		baseline: map[string]bool{},
	}
}

func (d *directExec) alloc(req AllocRequest) Placement {
	fail := func(err error) Placement { return Placement{ID: req.ID, Error: err.Error()} }
	if req.Kind == KindNear {
		var addrs []memsim.Addr
		for _, ref := range req.Affinity {
			info := d.infos[ref.Ref]
			if info == nil {
				return fail(fmt.Errorf("affinity ref %q is not a live allocation", ref.Ref))
			}
			addrs = append(addrs, info.ElemAddr(clampElem(ref.Elem, info.NumElem)))
		}
		base, err := d.s.AllocNear(req.Size, addrs)
		if err != nil {
			return fail(err)
		}
		chunk, _ := d.s.RT.ChunkOf(base)
		d.bases[req.ID] = base
		p := Placement{
			ID: req.ID, Base: uint64(base), ElemSize: int(req.Size),
			ElemStride: chunk, NumElem: 1, Interleave: chunk,
			StartBank: d.s.BankOf(base),
		}
		for range req.BankProbe {
			p.Banks = append(p.Banks, p.StartBank)
		}
		return p
	}
	mode := sys.AffAlloc
	if req.Mode != "" {
		var err error
		if mode, err = sys.ParseMode(req.Mode); err != nil {
			return fail(err)
		}
	}
	spec := core.AffineSpec{
		ElemSize: req.ElemSize, NumElem: req.NumElem,
		AlignP: req.AlignP, AlignQ: req.AlignQ, AlignX: req.AlignX,
		Partition: req.Partition,
	}
	if req.AlignTo != "" {
		target := d.infos[req.AlignTo]
		if target == nil {
			return fail(fmt.Errorf("align_to %q is not a live allocation", req.AlignTo))
		}
		spec.AlignTo = target.Base
	}
	info, err := d.s.Alloc(mode, spec)
	if err != nil {
		return fail(err)
	}
	d.bases[req.ID] = info.Base
	if mode == sys.AffAlloc {
		d.infos[req.ID] = info
	} else {
		d.baseline[req.ID] = true
	}
	p := Placement{
		ID: req.ID, Base: uint64(info.Base), ElemSize: info.ElemSize,
		ElemStride: info.ElemStride, NumElem: info.NumElem,
		Interleave: info.Interleave, PageMapped: info.PageMapped,
		StartBank: info.StartBank,
	}
	if mode != sys.AffAlloc {
		p.StartBank = d.s.BankOf(info.Base)
	}
	for _, i := range req.BankProbe {
		p.Banks = append(p.Banks, d.s.BankOf(info.ElemAddr(clampElem(i, info.NumElem))))
	}
	return p
}

func (d *directExec) free(id string) {
	base, ok := d.bases[id]
	if !ok {
		return
	}
	if !d.baseline[id] {
		_ = d.s.Free(base)
	}
	delete(d.bases, id)
	delete(d.infos, id)
	delete(d.baseline, id)
}

// TestDifferentialServiceVsLibrary is the tentpole gate: an identical
// seeded request stream yields byte-identical placements via the wire
// API and via direct sys.System calls. Generator seeds 0, 4, 11 and 15
// at 4 096 requests are the streams on which a page-mapped placement
// reports an interleave no pooled allocation has used yet — where pool
// bookkeeping that opened the pool used to shift every later base.
func TestDifferentialServiceVsLibrary(t *testing.T) {
	const perRound = 16
	for _, tc := range []struct {
		seed   int64
		rounds int
	}{{7, 24}, {0, 256}, {4, 256}, {11, 256}, {15, 256}} {
		t.Run(fmt.Sprintf("seed=%d", tc.seed), func(t *testing.T) {
			differentialServiceVsLibrary(t, tc.seed, tc.rounds, perRound)
		})
	}
}

func differentialServiceVsLibrary(t *testing.T, seed int64, rounds, perRound int) {
	spec := MachineSpec{Seed: seed}

	_, client := newTestServer(t)
	reg, err := client.Register(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	var viaWire []Placement
	gen := NewStreamGen(seed, 0)
	steps := make([]Step, rounds)
	for r := range steps {
		steps[r] = gen.NextStep(perRound)
		resp, err := client.Alloc(bg, reg.MachineID, "", steps[r].Allocs)
		if err != nil {
			t.Fatal(err)
		}
		viaWire = append(viaWire, resp.Placements...)
		if len(steps[r].Frees) > 0 {
			if _, err := client.Free(bg, reg.MachineID, "", steps[r].Frees); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Replay the identical stream through the library.
	d := newDirectExec(t, spec)
	var viaLib []Placement
	for _, st := range steps {
		for _, req := range st.Allocs {
			viaLib = append(viaLib, d.alloc(req))
		}
		for _, id := range st.Frees {
			d.free(id)
		}
	}

	if len(viaWire) != rounds*perRound || len(viaLib) != len(viaWire) {
		t.Fatalf("got %d wire and %d library placements, want %d", len(viaWire), len(viaLib), rounds*perRound)
	}
	diffs := 0
	for i := range viaWire {
		if w, l := fmt.Sprintf("%+v", viaWire[i]), fmt.Sprintf("%+v", viaLib[i]); w != l {
			if diffs == 0 {
				t.Logf("first divergence at placement %d:\n wire %s\n lib  %s", i, w, l)
			}
			diffs++
		}
	}
	if diffs > 0 {
		t.Fatalf("%d of %d placements differ between wire API and direct library calls", diffs, len(viaWire))
	}
}

// TestConcurrentClientsDeterminism runs several tenant streams
// concurrently against one server and checks every stream's placements
// are byte-identical to a sequential replay on a fresh server —
// concurrency must not leak into placement decisions. Run under -race
// this also exercises the lock-free registry and the worker handoff.
func TestConcurrentClientsDeterminism(t *testing.T) {
	const seed, streams, rounds, perRound = 11, 4, 8, 8

	runStream := func(client *Client, stream int) ([]byte, error) {
		reg, err := client.Register(bg, MachineSpec{Seed: seed + int64(stream)})
		if err != nil {
			return nil, err
		}
		gen := NewStreamGen(seed, stream)
		var got []Placement
		for r := 0; r < rounds; r++ {
			st := gen.NextStep(perRound)
			resp, err := client.Alloc(bg, reg.MachineID, "", st.Allocs)
			if err != nil {
				return nil, err
			}
			got = append(got, resp.Placements...)
			if len(st.Frees) > 0 {
				if _, err := client.Free(bg, reg.MachineID, "", st.Frees); err != nil {
					return nil, err
				}
			}
		}
		return json.Marshal(got)
	}

	_, concClient := newTestServer(t)
	concurrent := make([][]byte, streams)
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concurrent[i], errs[i] = runStream(concClient, i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}

	_, seqClient := newTestServer(t)
	for i := 0; i < streams; i++ {
		sequential, err := runStream(seqClient, i)
		if err != nil {
			t.Fatalf("sequential stream %d: %v", i, err)
		}
		if !bytes.Equal(concurrent[i], sequential) {
			t.Errorf("stream %d placements differ between concurrent and sequential serving", i)
		}
	}
}

// TestServerCloseDrains pins teardown: a closed server answers
// submissions with 503, and Close returns only after workers stopped.
func TestServerCloseDrains(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := NewClient(ts.URL)

	reg, err := client.Register(bg, MachineSpec{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Alloc(bg, reg.MachineID, "", []AllocRequest{{ID: "a", ElemSize: 4, NumElem: 64}}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := client.Alloc(bg, reg.MachineID, "", []AllocRequest{{ID: "b", ElemSize: 4, NumElem: 64}}); err == nil {
		t.Error("alloc after Close succeeded")
	}
	if _, err := client.Register(bg, MachineSpec{Seed: 3}); err == nil {
		t.Error("register after Close succeeded")
	}
}
