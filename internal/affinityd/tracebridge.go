package affinityd

import (
	"errors"
	"fmt"

	"affinityalloc/internal/sys"
	"affinityalloc/internal/trace"
)

// ErrNotWireExpressible marks scenarios that cannot be lowered to the
// wire API at all — forced-bank allocations (affine_bank/near_bank)
// bypass the policy in ways no wire request can ask for. Callers can
// errors.Is on it to skip such scenarios instead of failing.
var ErrNotWireExpressible = errors.New("not wire-expressible")

// This file bridges the wire API and the afftrace/v1 trace format in
// both directions:
//
//   - ScenarioFromStream lowers a StreamGen tenant stream into a trace
//     scenario, so the seeded wire workloads affload drives are also
//     record/replay/compose citizens.
//   - StepsFromScenario lifts a single-tenant scenario back into wire
//     batches, so a recorded trace can be replayed against a live
//     affinityd (affload -trace) and its wire placements compared with
//     the local trace.Replay — the wire≡library differential extended
//     to replayed streams.
//
// Both directions use the same event↔request lowering, so they are
// inverses over the wire-convertible event subset (affine/near/base
// allocations, frees, pool opens). Forced-bank ops have no wire
// counterpart and make StepsFromScenario fail.

// TraceStep is one wire round, lowered from a trace scenario or
// generated by StreamSteps: pools to open first, then the allocation
// batch, then the frees — each batch carrying its deterministic
// idempotency key.
type TraceStep struct {
	Pools []int
	Step
}

// wireID names allocation ordinal n (1-based) on the wire.
func wireID(n int64) string { return fmt.Sprintf("a%d", n) }

// scenario returns a scenario whose machine header holds spec's five
// fields; SpecOf is its inverse.
func (spec MachineSpec) scenario() *trace.Scenario {
	return &trace.Scenario{MeshW: spec.MeshW, MeshH: spec.MeshH, Seed: spec.Seed, Policy: spec.Policy, Faults: spec.Faults}
}

// SpecOf returns the machine spec a scenario's header describes: the
// machine to register for a wire replay of it.
func SpecOf(sc *trace.Scenario) MachineSpec {
	return MachineSpec{MeshW: sc.MeshW, MeshH: sc.MeshH, Seed: sc.Seed, Policy: sc.Policy, Faults: sc.Faults}
}

// ScenarioFromStream lowers one StreamGen tenant stream — the identical
// seeded request sequence affload sends — into a single-tenant trace
// scenario. Wire request IDs become 1-based allocation ordinals;
// baseline-mode requests carry their mode on the event. The spec fills
// the scenario's machine header (zero fields mean server defaults).
func ScenarioFromStream(spec MachineSpec, seed int64, stream, ops, batch int) (*trace.Scenario, error) {
	if ops < 1 || batch < 1 {
		return nil, fmt.Errorf("affinityd: want ops/batch >= 1, got %d/%d", ops, batch)
	}
	sc := spec.scenario()
	sc.Label = fmt.Sprintf("stream-%d", stream)
	sc.Mode = sys.AffAlloc.String()
	// The header records the shape the machine gets, defaults filled in,
	// so a daemon with other fleet defaults rebuilds the same machine.
	cfg, err := sc.Config()
	if err != nil {
		return nil, fmt.Errorf("affinityd: stream %d: %w", stream, err)
	}
	sc.MeshW, sc.MeshH = cfg.MeshW, cfg.MeshH
	ids := map[string]int64{} // wire ID -> allocation ordinal
	for _, step := range StreamSteps(seed, stream, ops, batch) {
		for i := range step.Allocs {
			e, err := eventFromRequest(&step.Allocs[i], ids)
			if err != nil {
				return nil, err
			}
			ids[step.Allocs[i].ID] = int64(len(ids)) + 1
			sc.Events = append(sc.Events, e)
		}
		for _, id := range step.Frees {
			ref, ok := ids[id]
			if !ok {
				return nil, fmt.Errorf("affinityd: stream frees unknown id %q", id)
			}
			sc.Events = append(sc.Events, trace.Event{Kind: trace.KindFree, Ref: ref})
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// eventFromRequest lowers one wire allocation request to a trace event.
func eventFromRequest(req *AllocRequest, ids map[string]int64) (trace.Event, error) {
	switch req.Kind {
	case "", KindAffine:
		e := trace.Event{
			Kind: trace.KindAlloc, Op: trace.OpAffine, Mode: req.Mode,
			ElemSize: req.ElemSize, NumElem: req.NumElem,
			AlignP: req.AlignP, AlignQ: req.AlignQ, AlignX: req.AlignX,
			Part: req.Partition,
		}
		if req.AlignTo != "" {
			ref, ok := ids[req.AlignTo]
			if !ok {
				return e, fmt.Errorf("affinityd: request %q aligns to unknown id %q", req.ID, req.AlignTo)
			}
			e.AlignRef = ref
		}
		return e, nil
	case KindNear:
		e := trace.Event{Kind: trace.KindAlloc, Op: trace.OpNear, Mode: req.Mode, Size: req.Size}
		for _, r := range req.Affinity {
			ref, ok := ids[r.Ref]
			if !ok {
				return e, fmt.Errorf("affinityd: request %q references unknown id %q", req.ID, r.Ref)
			}
			e.Affinity = append(e.Affinity, trace.Ref{Ref: ref, Elem: r.Elem})
		}
		return e, nil
	default:
		return trace.Event{}, fmt.Errorf("affinityd: request %q has unknown kind %q", req.ID, req.Kind)
	}
}

// StepsFromScenario lifts a single-tenant scenario's allocator events
// into wire rounds of at most batch allocations each, with frees and
// pool opens sequenced between batches exactly as they appear in the
// event stream. Allocation IDs are the trace ordinals, so affinity
// edges translate directly. Access/stream/preload summaries have no
// wire counterpart and are skipped; forced-bank allocations
// (affine_bank/near_bank) cannot be expressed on the wire and fail.
//
// Edges into allocations whose recorded outcome was a failure are
// dropped, mirroring replay's resolution rule — on the wire such a
// reference would reject the whole request rather than degrade it.
func StepsFromScenario(sc *trace.Scenario, batch int) ([]TraceStep, error) {
	if sc.NumTenants() > 1 {
		return nil, fmt.Errorf("affinityd: scenario %q is multi-tenant; replay tenants separately", sc.Label)
	}
	if batch < 1 {
		batch = 16
	}
	defMode, err := sc.ResolveMode()
	if err != nil {
		return nil, err
	}
	var steps []TraceStep
	cur := TraceStep{}
	seq := 0
	flush := func() {
		if len(cur.Pools) == 0 && len(cur.Allocs) == 0 && len(cur.Frees) == 0 {
			return
		}
		cur.AllocBatch = fmt.Sprintf("tr-a%d", seq)
		cur.FreeBatch = fmt.Sprintf("tr-f%d", seq)
		seq++
		steps = append(steps, cur)
		cur = TraceStep{}
	}
	var ord int64
	failed := map[int64]bool{}
	for i := range sc.Events {
		e := &sc.Events[i]
		switch e.Kind {
		case trace.KindOpenPool:
			// A pool open must keep its position relative to allocations:
			// pool spans are assigned at creation, so reordering would
			// shift every later placement.
			flush()
			cur.Pools = append(cur.Pools, e.Interleave)
		case trace.KindAlloc:
			// Frees already queued must land before this allocation.
			if len(cur.Frees) > 0 {
				flush()
			}
			ord++
			if e.Err != "" {
				failed[ord] = true
			}
			req, err := requestFromEvent(e, defMode, ord, failed)
			if err != nil {
				return nil, fmt.Errorf("affinityd: scenario %q: %w", sc.Label, err)
			}
			cur.Allocs = append(cur.Allocs, req)
			if len(cur.Allocs) >= batch {
				flush()
			}
		case trace.KindFree:
			if e.Ref <= 0 || failed[e.Ref] {
				continue // raw-address or failed-alloc free: nothing live on the wire
			}
			cur.Frees = append(cur.Frees, wireID(e.Ref))
		}
	}
	flush()
	return steps, nil
}

// requestFromEvent lifts one allocation event to a wire request whose
// server-side allocator call sequence matches the replay engine's:
//
//   - affine under any mode → affine request carrying that mode
//     (placeAffine and replayAlloc share the sys.Alloc entry point);
//   - near under Aff-Alloc → near request with the same affinity edges
//     (both sides call sys.AllocNear). An edge to an allocation's base
//     becomes element 0 and an edge at any other byte offset is not
//     wire-expressible. Edges to failed allocations are dropped, as
//     replay drops them, and raw edges, which name no allocation, too;
//   - near under a baseline mode, and base allocations → a baseline-mode
//     affine request with ElemSize 1, which executes exactly
//     RT.AllocBase(size), the call replayAlloc makes for both.
func requestFromEvent(e *trace.Event, defMode sys.Mode, ord int64, failed map[int64]bool) (AllocRequest, error) {
	emode := e.ResolveMode(defMode)
	req := AllocRequest{ID: wireID(ord)}
	if emode != sys.AffAlloc {
		req.Mode = emode.String()
	}
	baseline := func(size int64) AllocRequest {
		req.ElemSize = 1
		req.NumElem = size
		if req.Mode == "" {
			// The event ran on the baseline allocator even though the
			// scenario mode is Aff-Alloc; any non-default mode routes the
			// wire request to the same RT.AllocBase call.
			req.Mode = sys.NearL3.String()
		}
		return req
	}
	switch e.Op {
	case trace.OpAffine:
		req.ElemSize = e.ElemSize
		req.NumElem = e.NumElem
		req.AlignP, req.AlignQ, req.AlignX = e.AlignP, e.AlignQ, e.AlignX
		req.Partition = e.Part
		if e.AlignRef > 0 && !failed[e.AlignRef] {
			req.AlignTo = wireID(e.AlignRef)
		}
		return req, nil
	case trace.OpNear:
		if emode != sys.AffAlloc {
			return baseline(e.Size), nil
		}
		req.Kind = KindNear
		req.Size = e.Size
		for _, r := range e.Affinity {
			if r.Ref <= 0 || failed[r.Ref] {
				continue
			}
			if r.Elem < 0 {
				// An edge to a near chunk's base is element 0 on the
				// wire; any other byte offset has no wire form.
				if r.Off != 0 {
					return req, fmt.Errorf("allocation %d: edge at byte %d of allocation %d: %w", ord, r.Off, r.Ref, ErrNotWireExpressible)
				}
				r.Elem = 0
			}
			req.Affinity = append(req.Affinity, ElemRef{Ref: wireID(r.Ref), Elem: r.Elem})
		}
		return req, nil
	case trace.OpBase:
		return baseline(e.Size), nil
	default:
		return req, fmt.Errorf("allocation %d: op %q: %w", ord, e.Op, ErrNotWireExpressible)
	}
}

// DiffReplay compares the wire placements a trace-driven run produced
// against the local replay of the same scenario, allocation by
// allocation, and describes every divergence. wire maps wire request IDs
// (wireID ordinals) to the placements the daemon returned.
//
// Error-ness, base address and interleave must always agree — they pin
// the allocator trajectory. Stride, start bank and page mapping are
// additionally compared for Aff-Alloc affine placements, where both
// sides report the runtime's layout record; for baseline and near
// placements the wire response carries derived values (BankOf remaps,
// chunk geometry) that the replay result intentionally leaves unset.
func DiffReplay(sc *trace.Scenario, res *trace.Result, wire map[string]Placement) ([]string, error) {
	defMode, err := sc.ResolveMode()
	if err != nil {
		return nil, err
	}
	byID := make(map[int64]trace.Placement, len(res.Placements))
	for _, p := range res.Placements {
		byID[p.ID] = p
	}
	var diffs []string
	var ord int64
	for i := range sc.Events {
		e := &sc.Events[i]
		if e.Kind != trace.KindAlloc {
			continue
		}
		ord++
		id := wireID(ord)
		rep, ok := byID[ord]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: replay produced no placement", id))
			continue
		}
		w, ok := wire[id]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: daemon returned no placement", id))
			continue
		}
		if (w.Error != "") != (rep.Err != "") {
			diffs = append(diffs, fmt.Sprintf("%s: wire error %q vs replay error %q", id, w.Error, rep.Err))
			continue
		}
		if w.Error != "" {
			continue
		}
		if w.Base != rep.Base || w.Interleave != rep.Interleave {
			diffs = append(diffs, fmt.Sprintf("%s: wire base=%#x il=%d vs replay base=%#x il=%d",
				id, w.Base, w.Interleave, rep.Base, rep.Interleave))
			continue
		}
		if e.Op == trace.OpAffine && e.ResolveMode(defMode) == sys.AffAlloc &&
			(w.ElemStride != rep.Stride || w.StartBank != rep.StartBank || w.PageMapped != rep.PageMapped) {
			diffs = append(diffs, fmt.Sprintf("%s: wire stride=%d bank=%d mapped=%v vs replay stride=%d bank=%d mapped=%v",
				id, w.ElemStride, w.StartBank, w.PageMapped, rep.Stride, rep.StartBank, rep.PageMapped))
		}
	}
	return diffs, nil
}
