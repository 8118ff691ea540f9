package trace

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"affinityalloc/internal/core"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/faults"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/stream"
	"affinityalloc/internal/sys"
)

// DefaultWindow is the per-tenant outstanding-access window replay
// issues access summaries through — the same depth the indirect-stream
// workloads use.
const DefaultWindow = 12

// Options adjusts how a scenario is replayed. The zero value replays
// exactly as recorded — the replay-differential configuration.
type Options struct {
	// Mode overrides the execution mode (sys.Mode spelling). Replaying
	// an Aff-Alloc-recorded scenario under In-Core/Near-L3 remaps
	// affinity-aware allocations onto the baseline allocator, exactly as
	// System.Alloc and the co-designed structures would have.
	Mode string
	// Faults overrides the fault spec: "" keeps the recorded spec,
	// "none" replays on a clean machine, anything else is parsed.
	Faults string
	// Policy overrides the irregular bank policy (core.ParsePolicy
	// spelling); "" keeps the recorded policy.
	Policy string
	// Window bounds outstanding replayed accesses per tenant
	// (DefaultWindow when 0).
	Window int
}

// Placement is one allocation outcome, recorded or replayed — the unit
// the byte-identity gate compares.
type Placement struct {
	Tenant     int
	ID         int64
	Op         string
	Base       uint64
	Interleave int
	Stride     int
	StartBank  int
	PageMapped bool
	Err        string
}

// TenantResult is one tenant's replay outcome.
type TenantResult struct {
	Label     string
	Allocs    int // successful allocations
	AllocErrs int
	Frees     int
	Accesses  uint64
	Cycles    engine.Time // completion time of the tenant's last access
}

// Result is a completed replay.
type Result struct {
	Scenario   *Scenario
	Mode       sys.Mode
	System     *sys.System
	Placements []Placement
	Tenants    []TenantResult
	Cycles     engine.Time
	Metrics    sys.Metrics
}

// handle is one replayed allocation's resolution state.
type handle struct {
	base  memsim.Addr
	info  *core.ArrayInfo // non-nil only for affine placements
	bytes int64
	op    string
	// viaRT marks allocations that went through the affinity runtime
	// and therefore must be released through it; baseline allocations
	// are dropped silently on free, mirroring the placement service.
	viaRT bool
	err   bool
}

// tenantState is one tenant's replay clock.
type tenantState struct {
	handles  map[int64]*handle
	nextID   int64
	clock    engine.Time
	horizon  engine.Time
	ops      *stream.OpWindow
	accesses uint64
}

// Replay re-drives a scenario through a freshly built system: every
// allocation event re-executes the public allocator entry point it was
// recorded from (with symbolic affinity edges resolved against the
// replayed bases), frees release through the runtime, and access/stream
// summaries re-issue timed traffic through the memory system and NoC
// under a bounded per-tenant window. With zero Options the allocator
// walks the identical state trajectory as the recording run, so
// placements are byte-identical — the standing replay differential.
func Replay(sc *Scenario, opt Options) (*Result, error) {
	cfg, err := sc.Config()
	if err != nil {
		return nil, err
	}
	switch opt.Faults {
	case "":
	case "none":
		cfg.Faults = faults.Spec{}
	default:
		f, ferr := faults.Parse(opt.Faults)
		if ferr != nil {
			return nil, ferr
		}
		cfg.Faults = f
	}
	if opt.Policy != "" {
		p, perr := core.ParsePolicy(opt.Policy)
		if perr != nil {
			return nil, perr
		}
		cfg.Policy = p
	}
	mode := sys.AffAlloc
	if sc.Mode != "" {
		if mode, err = sys.ParseMode(sc.Mode); err != nil {
			return nil, err
		}
	}
	if opt.Mode != "" {
		if mode, err = sys.ParseMode(opt.Mode); err != nil {
			return nil, err
		}
	}
	s, err := sys.New(cfg)
	if err != nil {
		return nil, err
	}

	window := opt.Window
	if window <= 0 {
		window = DefaultWindow
	}
	res := &Result{Scenario: sc, Mode: mode, System: s}
	tenants := make(map[int]*tenantState)
	tn := func(t int) *tenantState {
		ts := tenants[t]
		if ts == nil {
			ts = &tenantState{handles: make(map[int64]*handle), ops: stream.NewOpWindow(window)}
			tenants[t] = ts
		}
		return ts
	}

	for ei := range sc.Events {
		e := &sc.Events[ei]
		ts := tn(e.Tenant)
		switch e.Kind {
		case KindOpenPool:
			// Pool opens are advisory (allocation creates pools on
			// demand); an unsupported interleave recorded under another
			// config just no-ops.
			_, _ = s.OpenPool(e.Interleave)
		case KindAlloc:
			res.Placements = append(res.Placements, replayAlloc(s, mode, ts, e))
		case KindFree:
			replayFree(s, ts, e)
		case KindAccess:
			replayAccess(s, ts, e)
		case KindPreload:
			replayPreload(s, ts, e)
		case KindStream:
			replayStream(s, ts, e)
		}
	}

	var finish engine.Time
	tenantIDs := make([]int, 0, len(tenants))
	for t := range tenants {
		tenantIDs = append(tenantIDs, t)
	}
	// Tenant results in tenant order for deterministic rendering.
	for t := 0; len(tenantIDs) > 0 && t <= maxTenant(tenantIDs); t++ {
		ts, ok := tenants[t]
		if !ok {
			continue
		}
		tr := TenantResult{Label: sc.TenantLabel(t), Accesses: ts.accesses, Cycles: ts.horizon}
		for _, h := range ts.handles {
			if h.err {
				tr.AllocErrs++
			}
		}
		tr.Allocs = int(ts.nextID) - tr.AllocErrs
		tr.Frees = tenantFrees(sc, t)
		res.Tenants = append(res.Tenants, tr)
		finish = engine.MaxTime(finish, ts.horizon)
		finish = engine.MaxTime(finish, ts.clock)
	}
	res.Cycles = finish
	res.Metrics = s.Collect(finish)
	return res, nil
}

func maxTenant(ids []int) int {
	m := 0
	for _, id := range ids {
		if id > m {
			m = id
		}
	}
	return m
}

func tenantFrees(sc *Scenario, tenant int) int {
	n := 0
	for i := range sc.Events {
		if sc.Events[i].Tenant == tenant && sc.Events[i].Kind == KindFree && sc.Events[i].Ref > 0 {
			n++
		}
	}
	return n
}

// resolveRef turns a symbolic affinity edge back into an address on the
// replayed system; ok is false when the edge cannot be resolved to a
// mapped address (the hint is then dropped, never panicking the space).
func resolveRef(s *sys.System, ts *tenantState, r Ref) (memsim.Addr, bool) {
	var addr memsim.Addr
	if r.Ref > 0 {
		h := ts.handles[r.Ref]
		if h == nil || h.err {
			return 0, false
		}
		if h.info != nil && r.Elem >= 0 && r.Elem < h.info.NumElem {
			addr = h.info.ElemAddr(r.Elem)
		} else {
			addr = h.base + memsim.Addr(r.Off)
		}
	} else {
		addr = memsim.Addr(r.Raw)
	}
	if _, err := s.Space.Bank(addr); err != nil {
		return 0, false
	}
	return addr, true
}

// replayAlloc re-executes one allocation event under the replay mode,
// returning its placement. The entry-point mapping mirrors what the
// workload/service layer would have called: affinity-aware ops go to
// the runtime under Aff-Alloc and to the baseline allocator otherwise.
func replayAlloc(s *sys.System, mode sys.Mode, ts *tenantState, e *Event) Placement {
	emode := mode
	if e.Mode != "" {
		if m, err := sys.ParseMode(e.Mode); err == nil {
			emode = m
		}
	}
	ts.nextID++
	h := &handle{op: e.Op}
	p := Placement{Tenant: e.Tenant, ID: ts.nextID, Op: e.Op, StartBank: -1}

	fail := func(err error) Placement {
		h.err = true
		p.Err = err.Error()
		ts.handles[ts.nextID] = h
		return p
	}
	affine := func(info *core.ArrayInfo, err error) Placement {
		if err != nil {
			return fail(err)
		}
		h.base, h.info, h.bytes = info.Base, info, info.Bytes()
		h.viaRT = emode == sys.AffAlloc
		p.Base = uint64(info.Base)
		p.Interleave = info.Interleave
		p.Stride = info.ElemStride
		p.StartBank = info.StartBank
		p.PageMapped = info.PageMapped
		ts.handles[ts.nextID] = h
		return p
	}
	chunkAlloc := func(addr memsim.Addr, err error) Placement {
		if err != nil {
			return fail(err)
		}
		chunk, _ := s.RT.ChunkOf(addr)
		h.base, h.bytes, h.viaRT = addr, int64(chunk), true
		p.Base = uint64(addr)
		p.Interleave = chunk
		ts.handles[ts.nextID] = h
		return p
	}
	baseAlloc := func(size int64) Placement {
		addr, err := s.RT.AllocBase(size)
		if err != nil {
			return fail(err)
		}
		h.base, h.bytes = addr, size
		p.Base = uint64(addr)
		ts.handles[ts.nextID] = h
		return p
	}

	switch e.Op {
	case OpAffine:
		spec := core.AffineSpec{
			ElemSize: e.ElemSize, NumElem: e.NumElem,
			AlignP: e.AlignP, AlignQ: e.AlignQ, AlignX: e.AlignX,
			Partition: e.Part,
		}
		if e.AlignRef > 0 {
			if t := ts.handles[e.AlignRef]; t != nil && !t.err {
				spec.AlignTo = t.base
			}
		} else if e.AlignRaw != 0 {
			spec.AlignTo = memsim.Addr(e.AlignRaw)
		}
		return affine(s.Alloc(emode, spec))
	case OpAffineBank:
		spec := core.AffineSpec{
			ElemSize: e.ElemSize, NumElem: e.NumElem,
			AlignP: e.AlignP, AlignQ: e.AlignQ, AlignX: e.AlignX,
			Partition: e.Part,
		}
		if emode != sys.AffAlloc {
			return affine(s.Alloc(emode, spec))
		}
		return affine(s.RT.AllocAffineAtBank(spec, e.Bank))
	case OpNear:
		if emode != sys.AffAlloc {
			return baseAlloc(e.Size)
		}
		var aff []memsim.Addr
		for _, r := range e.Affinity {
			if a, ok := resolveRef(s, ts, r); ok {
				aff = append(aff, a)
			}
		}
		return chunkAlloc(s.AllocNear(e.Size, aff))
	case OpNearBank:
		if emode != sys.AffAlloc {
			return baseAlloc(e.Size)
		}
		return chunkAlloc(s.RT.AllocAtBank(e.Size, e.Bank))
	default: // OpBase
		return baseAlloc(e.Size)
	}
}

// replayFree releases one recorded free: runtime allocations through
// System.Free, baseline ones by dropping the handle (the placement
// service's semantics — the baseline allocator was never called to
// free, and calling it would be a state change the recording never
// made). Raw-address frees replay verbatim to reproduce the recorded
// failure.
func replayFree(s *sys.System, ts *tenantState, e *Event) {
	if e.Ref > 0 {
		h := ts.handles[e.Ref]
		if h == nil || h.err {
			return
		}
		if h.viaRT {
			_ = s.Free(h.base)
		}
		return
	}
	_ = s.Free(memsim.Addr(e.Raw))
}

// replayAccess re-issues one access summary as timed memory traffic:
// each touched chunk's accesses sweep its lines round-robin, reads
// before writes, issued through the tenant's outstanding-op window.
func replayAccess(s *sys.System, ts *tenantState, e *Event) {
	gran := e.Gran
	if gran < memsim.LineSize {
		gran = memsim.LineSize
	}
	var base memsim.Addr
	var extent int64
	if e.Ref > 0 {
		h := ts.handles[e.Ref]
		if h == nil || h.err {
			return
		}
		base, extent = h.base, h.bytes
	}
	for _, t := range e.Touches {
		var start memsim.Addr
		nLines := gran / memsim.LineSize
		if e.Ref > 0 {
			start = base + memsim.Addr(t.Chunk*gran)
			if extent > 0 {
				if rem := extent - t.Chunk*gran; rem < gran {
					nLines = (rem + memsim.LineSize - 1) / memsim.LineSize
				}
			}
		} else {
			// Wild access: the chunk is an absolute line index.
			start = memsim.Addr(t.Chunk * memsim.LineSize)
			nLines = 1
		}
		if nLines < 1 {
			nLines = 1
		}
		if _, err := s.Space.Bank(start); err != nil {
			// Unmapped on the replayed machine (e.g. a composed tenant's
			// raw address): skip rather than fault the space.
			continue
		}
		total := int64(t.Reads) + int64(t.Writes)
		for k := int64(0); k < total; k++ {
			va := start + memsim.Addr(k%nLines)*memsim.LineSize
			at := ts.ops.Issue(ts.clock)
			done, _ := s.Mem.Access(at, va, k >= int64(t.Reads))
			ts.ops.Complete(done)
			ts.clock = at + 1
			ts.horizon = engine.MaxTime(ts.horizon, done)
			ts.accesses++
		}
	}
}

// replayPreload re-warms the L3 with one recorded preload.
func replayPreload(s *sys.System, ts *tenantState, e *Event) {
	var va memsim.Addr
	if e.Ref > 0 {
		h := ts.handles[e.Ref]
		if h == nil || h.err {
			return
		}
		va = h.base + memsim.Addr(e.Off)
	} else {
		va = memsim.Addr(e.Raw)
	}
	if _, err := s.Space.Bank(va); err != nil {
		return
	}
	s.Mem.Preload(va, e.Size)
}

// replayStream re-issues aggregated stream-configuration and migration
// traffic onto the NoC at the tenant's current clock.
func replayStream(s *sys.System, ts *tenantState, e *Event) {
	nb := s.Mesh.Banks()
	for _, f := range e.Offloads {
		if f.From < 0 || f.From >= nb || f.To < 0 || f.To >= nb {
			continue
		}
		for i := uint32(0); i < f.N; i++ {
			done := s.SE.Offload(ts.clock, f.From, f.To)
			ts.horizon = engine.MaxTime(ts.horizon, done)
		}
	}
	for _, f := range e.Migs {
		if f.From < 0 || f.From >= nb || f.To < 0 || f.To >= nb {
			continue
		}
		for i := uint32(0); i < f.N; i++ {
			s.SE.MigrateOverlapped(ts.clock, f.From, f.To)
		}
	}
}

// --- placement dumps (the byte-identity gate) ---

// appendPlacement renders one placement canonically.
func appendPlacement(b *bytes.Buffer, p Placement) {
	fmt.Fprintf(b, "t%d a%d %s", p.Tenant, p.ID, p.Op)
	if p.Err != "" {
		fmt.Fprintf(b, " err=%q\n", p.Err)
		return
	}
	fmt.Fprintf(b, " base=%#x il=%d stride=%d", p.Base, p.Interleave, p.Stride)
	if p.Op == OpAffine || p.Op == OpAffineBank {
		fmt.Fprintf(b, " bank=%d pm=%v", p.StartBank, p.PageMapped)
	}
	b.WriteByte('\n')
}

// PlacementDump renders the replayed placements canonically, one line
// per allocation event.
func (r *Result) PlacementDump() []byte {
	var b bytes.Buffer
	for _, p := range r.Placements {
		appendPlacement(&b, p)
	}
	return b.Bytes()
}

// RecordedPlacements reconstructs the placement list a recording run
// observed, from the outcome fields stored in the scenario's events —
// the "expected" side of the record→replay identity gate.
func RecordedPlacements(sc *Scenario) []Placement {
	var out []Placement
	next := map[int]int64{}
	for i := range sc.Events {
		e := &sc.Events[i]
		if e.Kind != KindAlloc {
			continue
		}
		next[e.Tenant]++
		p := Placement{
			Tenant: e.Tenant, ID: next[e.Tenant], Op: e.Op,
			Base: e.Base, Interleave: e.ResIl, Stride: e.Stride,
			StartBank: e.StartBank, PageMapped: e.PageMapped, Err: e.Err,
		}
		out = append(out, p)
	}
	return out
}

// RecordedDump renders RecordedPlacements canonically; byte-equal to
// Result.PlacementDump when replay walked the recorded trajectory.
func RecordedDump(sc *Scenario) []byte {
	var b bytes.Buffer
	for _, p := range RecordedPlacements(sc) {
		appendPlacement(&b, p)
	}
	return b.Bytes()
}

// Digest returns a short FNV-1a digest of a placement dump, for
// rendering in replay reports.
func Digest(dump []byte) string {
	h := fnv.New64a()
	h.Write(dump)
	return fmt.Sprintf("%016x", h.Sum64())
}
