package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"affinityalloc/internal/engine"
	"affinityalloc/internal/telemetry"
	"affinityalloc/internal/topo"
)

// maxRetransmits bounds how many times one message retries a lossy link;
// past the bound the flits are assumed through (links degrade, they do
// not silently eat traffic forever).
const maxRetransmits = 3

// retransmitCycles is the per-retry latency penalty: timeout detection at
// the upstream router plus the replayed traversal.
const retransmitCycles engine.Time = 6

// maxInstants caps how many fault occurrences are recorded as trace
// instants; counters keep exact totals past the cap.
const maxInstants = 64

// dramState is one channel's resolved throttle.
type dramState struct {
	latX       float64
	dutyOn     uint64
	dutyPeriod uint64
}

// Injector is one System's resolved fault state: the degraded link map,
// the dead-bank set, per-channel DRAM throttles, a private seeded RNG for
// drop draws, and the fault counters telemetry publishes. It is built
// once per System and, like the rest of the machine model, is not safe
// for concurrent use — the simulation serializes all access, and each
// System owns its own injector, which is what keeps faulted runs
// byte-identical across harness worker counts.
type Injector struct {
	spec Spec
	mesh *topo.Mesh
	rng  *rand.Rand

	linkDead []bool    // by topo.Mesh.LinkIndex
	linkDrop []float64 // by topo.Mesh.LinkIndex
	deadBank []bool
	deadList []int // sorted dead banks
	survivor []int // sorted surviving banks
	nDeadLnk int

	dram []dramState

	// detours caches the alternate route around dead links per
	// (from, to) pair, keyed from*banks+to.
	detours map[int][]topo.Link

	// kills holds the resolved mid-run bank kills, sorted by (At, Bank).
	kills []BankKill

	// Counters (telemetry: fault_*).
	DropEvents       uint64 // messages that lost flits on a lossy link
	RetransmitFlits  uint64 // flits re-sent over lossy links
	DetourMessages   uint64 // messages routed around dead links
	DetourExtraHops  uint64 // hops beyond the clean X-Y distance
	DRAMStallCycles  uint64 // cycles requests waited out channel blackouts
	BankKillsApplied uint64 // mid-run bank kills that have fired
	instants         []telemetry.Instant
	instantsDropped  uint64
}

// New resolves a spec against a concrete mesh with the given DRAM channel
// count. It validates everything Check does plus the geometry-dependent
// rules: faulted links must join adjacent tiles, and the surviving link
// graph must stay strongly connected (every tile can still reach every
// other). Auto-picked victims are drawn from the spec's seeded RNG, so
// the same spec degrades the same machine in every run.
func New(spec Spec, mesh *topo.Mesh, channels int) (*Injector, error) {
	if err := spec.Check(mesh.Banks(), channels); err != nil {
		return nil, err
	}
	f := &Injector{
		spec:     spec,
		mesh:     mesh,
		rng:      rand.New(rand.NewSource(spec.seed())),
		linkDead: make([]bool, mesh.NumLinks()),
		linkDrop: make([]float64, mesh.NumLinks()),
		deadBank: make([]bool, mesh.Banks()),
		dram:     make([]dramState, channels),
		detours:  make(map[int][]topo.Link),
	}
	for _, d := range spec.DRAM {
		f.dram[d.Chan] = dramState{latX: d.LatencyX, dutyOn: d.DutyOn, dutyPeriod: d.DutyPeriod}
	}

	// Explicit link faults.
	for _, l := range spec.Links {
		idx, err := f.linkBetween(l.From, l.To)
		if err != nil {
			return nil, err
		}
		if l.Dead {
			f.linkDead[idx] = true
			f.nDeadLnk++
		} else {
			f.linkDrop[idx] = l.Drop
		}
	}
	if !f.stronglyConnected() {
		return nil, fmt.Errorf("faults: dead links disconnect the mesh")
	}

	// Auto-picked dead links: shuffle the internal link list and kill
	// candidates that keep the mesh strongly connected.
	if spec.NDeadLinks > 0 {
		cands := f.internalLinks()
		f.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		picked := 0
		for _, idx := range cands {
			if picked == spec.NDeadLinks {
				break
			}
			if f.linkDead[idx] {
				continue
			}
			f.linkDead[idx] = true
			if f.stronglyConnected() {
				picked++
				f.nDeadLnk++
			} else {
				f.linkDead[idx] = false
			}
		}
		if picked < spec.NDeadLinks {
			return nil, fmt.Errorf("faults: could only kill %d of %d links without disconnecting the mesh", picked, spec.NDeadLinks)
		}
	}

	// Mid-run kill targets: auto-picked dead banks must not claim them
	// (a bank cannot die at build time and again at cycle T).
	killTarget := make(map[int]bool, len(spec.Kills))
	for _, k := range spec.Kills {
		killTarget[k.Bank] = true
	}

	// Dead banks: explicit first, then auto-picked.
	for _, b := range spec.DeadBanks {
		f.deadBank[b] = true
	}
	if spec.NDeadBanks > 0 {
		order := make([]int, mesh.Banks())
		for i := range order {
			order[i] = i
		}
		f.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		picked := 0
		for _, b := range order {
			if picked == spec.NDeadBanks {
				break
			}
			if !f.deadBank[b] && !killTarget[b] {
				f.deadBank[b] = true
				picked++
			}
		}
		if picked < spec.NDeadBanks {
			return nil, fmt.Errorf("faults: could only disable %d of %d auto-picked banks", picked, spec.NDeadBanks)
		}
	}
	for b, dead := range f.deadBank {
		if dead {
			f.deadList = append(f.deadList, b)
		} else {
			f.survivor = append(f.survivor, b)
		}
	}
	if len(f.survivor) == 0 {
		return nil, fmt.Errorf("faults: no surviving bank")
	}
	if len(spec.Kills) > 0 {
		if len(f.survivor) <= len(spec.Kills) {
			return nil, fmt.Errorf("faults: %d mid-run kills leave no survivor of %d alive banks", len(spec.Kills), len(f.survivor))
		}
		f.kills = append(f.kills, spec.Kills...)
		sort.Slice(f.kills, func(i, j int) bool {
			if f.kills[i].At != f.kills[j].At {
				return f.kills[i].At < f.kills[j].At
			}
			return f.kills[i].Bank < f.kills[j].Bank
		})
	}

	// Record the configured degradation as cycle-0 trace instants.
	for range f.deadList {
		f.instant("dead_bank", 0)
	}
	for _, dead := range f.linkDead {
		if dead {
			f.instant("dead_link", 0)
		}
	}
	return f, nil
}

// linkBetween returns the dense index of the directed link from bank a to
// adjacent bank b.
func (f *Injector) linkBetween(a, b int) (int, error) {
	ca, cb := f.mesh.CoordOf(a), f.mesh.CoordOf(b)
	var dir topo.LinkDir
	switch {
	case cb.X == ca.X+1 && cb.Y == ca.Y:
		dir = topo.East
	case cb.X == ca.X-1 && cb.Y == ca.Y:
		dir = topo.West
	case cb.Y == ca.Y+1 && cb.X == ca.X:
		dir = topo.South
	case cb.Y == ca.Y-1 && cb.X == ca.X:
		dir = topo.North
	default:
		return 0, fmt.Errorf("faults: banks %d and %d are not mesh-adjacent", a, b)
	}
	return f.mesh.LinkIndex(topo.Link{From: ca, Dir: dir}), nil
}

// internalLinks lists the dense indices of every directed link joining
// two in-mesh tiles, in a fixed scan order.
func (f *Injector) internalLinks() []int {
	var out []int
	w, h := f.mesh.Width(), f.mesh.Height()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := topo.Coord{X: x, Y: y}
			if x+1 < w {
				out = append(out, f.mesh.LinkIndex(topo.Link{From: c, Dir: topo.East}))
			}
			if x > 0 {
				out = append(out, f.mesh.LinkIndex(topo.Link{From: c, Dir: topo.West}))
			}
			if y+1 < h {
				out = append(out, f.mesh.LinkIndex(topo.Link{From: c, Dir: topo.South}))
			}
			if y > 0 {
				out = append(out, f.mesh.LinkIndex(topo.Link{From: c, Dir: topo.North}))
			}
		}
	}
	return out
}

// neighbors appends the tiles reachable from c over alive links (forward
// direction) or the tiles that can reach c (reverse), in fixed E,W,S,N
// order for deterministic BFS trees.
func (f *Injector) neighbors(dst []topo.Coord, c topo.Coord, reverse bool) []topo.Coord {
	w, h := f.mesh.Width(), f.mesh.Height()
	type step struct {
		dir    topo.LinkDir
		dx, dy int
		rev    topo.LinkDir
	}
	steps := [4]step{
		{topo.East, 1, 0, topo.West},
		{topo.West, -1, 0, topo.East},
		{topo.South, 0, 1, topo.North},
		{topo.North, 0, -1, topo.South},
	}
	for _, s := range steps {
		n := topo.Coord{X: c.X + s.dx, Y: c.Y + s.dy}
		if n.X < 0 || n.X >= w || n.Y < 0 || n.Y >= h {
			continue
		}
		var idx int
		if reverse {
			idx = f.mesh.LinkIndex(topo.Link{From: n, Dir: s.rev})
		} else {
			idx = f.mesh.LinkIndex(topo.Link{From: c, Dir: s.dir})
		}
		if f.linkDead[idx] {
			continue
		}
		dst = append(dst, n)
	}
	return dst
}

// stronglyConnected reports whether every tile reaches every other over
// alive links: a forward and a reverse BFS from tile 0 must each cover
// the mesh.
func (f *Injector) stronglyConnected() bool {
	for _, reverse := range [2]bool{false, true} {
		seen := make([]bool, f.mesh.Banks())
		queue := []topo.Coord{f.mesh.CoordOf(0)}
		seen[0] = true
		count := 1
		var nbuf []topo.Coord
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			nbuf = f.neighbors(nbuf[:0], c, reverse)
			for _, n := range nbuf {
				b := f.mesh.BankAt(n)
				if !seen[b] {
					seen[b] = true
					count++
					queue = append(queue, n)
				}
			}
		}
		if count != f.mesh.Banks() {
			return false
		}
	}
	return true
}

// BankKills returns the resolved mid-run kills, sorted by (At, Bank) —
// the deterministic order cache.MemSystem applies them in.
func (f *Injector) BankKills() []BankKill {
	return append([]BankKill(nil), f.kills...)
}

// NoteBankKill records a mid-run bank kill that has fired: the injector's
// own dead-bank view (NearestAlive, telemetry) tracks the shrunken
// machine, and the occurrence lands in the trace as a bank_kill instant.
// memsim.Space.KillBank applies the actual remap; this keeps the
// injector's bookkeeping in step.
func (f *Injector) NoteBankKill(at engine.Time, b int) {
	if f.deadBank[b] {
		return
	}
	f.deadBank[b] = true
	f.deadList = f.deadList[:0]
	f.survivor = f.survivor[:0]
	for bank, dead := range f.deadBank {
		if dead {
			f.deadList = append(f.deadList, bank)
		} else {
			f.survivor = append(f.survivor, bank)
		}
	}
	f.BankKillsApplied++
	f.instant("bank_kill", uint64(at))
}

// DeadBankList returns the sorted dead banks (for memsim.Config).
func (f *Injector) DeadBankList() []int {
	return append([]int(nil), f.deadList...)
}

// DeadLinks returns the number of dead directed links.
func (f *Injector) DeadLinks() int { return f.nDeadLnk }

// BankAlive reports whether a bank survived.
func (f *Injector) BankAlive(b int) bool { return !f.deadBank[b] }

// NearestAlive returns the surviving bank closest to b (b itself when
// alive); ties break toward the lowest bank number.
func (f *Injector) NearestAlive(b int) int {
	if !f.deadBank[b] {
		return b
	}
	best, bestHops := f.survivor[0], f.mesh.Hops(b, f.survivor[0])
	for _, s := range f.survivor[1:] {
		if h := f.mesh.Hops(b, s); h < bestHops {
			best, bestHops = s, h
		}
	}
	return best
}

// DegradedLinks reports whether any link fault is configured (the NoC
// fast path stays untouched otherwise).
func (f *Injector) DegradedLinks() bool {
	return f.nDeadLnk > 0 || f.hasDrop()
}

func (f *Injector) hasDrop() bool {
	for _, p := range f.linkDrop {
		if p > 0 {
			return true
		}
	}
	return false
}

// Route appends the route from bank from to bank to that avoids dead
// links, and reports whether it detours off the X-Y path. The clean X-Y
// route is used whenever it survives; otherwise a cached BFS detour over
// alive links (deterministic: fixed neighbor order).
func (f *Injector) Route(dst []topo.Link, from, to int) ([]topo.Link, bool) {
	dst = f.mesh.Route(dst, from, to)
	clean := true
	for _, l := range dst {
		if f.linkDead[f.mesh.LinkIndex(l)] {
			clean = false
			break
		}
	}
	if clean {
		return dst, false
	}
	return append(dst[:0], f.detour(from, to)...), true
}

// detour returns (computing and caching on first use) the BFS shortest
// path from from to to over alive links.
func (f *Injector) detour(from, to int) []topo.Link {
	key := from*f.mesh.Banks() + to
	if r, ok := f.detours[key]; ok {
		return r
	}
	// BFS with parent links; connectivity was validated at construction,
	// so a path always exists.
	parent := make([]topo.Link, f.mesh.Banks())
	seen := make([]bool, f.mesh.Banks())
	queue := []topo.Coord{f.mesh.CoordOf(from)}
	seen[from] = true
	var nbuf []topo.Coord
	for len(queue) > 0 && !seen[to] {
		c := queue[0]
		queue = queue[1:]
		nbuf = f.neighbors(nbuf[:0], c, false)
		for _, n := range nbuf {
			b := f.mesh.BankAt(n)
			if seen[b] {
				continue
			}
			seen[b] = true
			parent[b] = topo.Link{From: c, Dir: dirBetween(c, n)}
			queue = append(queue, n)
		}
	}
	if !seen[to] {
		panic(fmt.Sprintf("faults: no route %d->%d despite validated connectivity (programmer error)", from, to))
	}
	var rev []topo.Link
	for b := to; b != from; {
		l := parent[b]
		rev = append(rev, l)
		b = f.mesh.BankAt(l.From)
	}
	route := make([]topo.Link, len(rev))
	for i := range rev {
		route[i] = rev[len(rev)-1-i]
	}
	f.detours[key] = route
	return route
}

// dirBetween returns the link direction from adjacent coordinate a to b.
func dirBetween(a, b topo.Coord) topo.LinkDir {
	switch {
	case b.X > a.X:
		return topo.East
	case b.X < a.X:
		return topo.West
	case b.Y > a.Y:
		return topo.South
	default:
		return topo.North
	}
}

// NoteDetour records one message routed around dead links with the given
// extra hops beyond the clean X-Y distance.
func (f *Injector) NoteDetour(at engine.Time, extraHops int) {
	f.DetourMessages++
	f.DetourExtraHops += uint64(extraHops)
	f.instant("link_detour", uint64(at))
}

// LinkRetransmits draws the retransmission count for one message crossing
// the link with dense index idx, returning the extra flit-units the link
// must carry and the added latency. Zero for clean links. Draw order is
// the simulation's deterministic message order, so results reproduce.
func (f *Injector) LinkRetransmits(at engine.Time, idx, flits int) (extraUnits int, delay engine.Time) {
	p := f.linkDrop[idx]
	if p <= 0 {
		return 0, 0
	}
	retries := 0
	for retries < maxRetransmits && f.rng.Float64() < p {
		retries++
	}
	if retries == 0 {
		return 0, 0
	}
	f.DropEvents++
	f.RetransmitFlits += uint64(retries * flits)
	f.instant("flit_drop", uint64(at))
	return retries * flits, engine.Time(retries) * retransmitCycles
}

// DRAMAdjust applies channel ch's throttle to an access that would start
// service at start with the given base latency: blackout windows push the
// start to the next on-window (counted as stall cycles), and the latency
// multiplier stretches the access itself.
func (f *Injector) DRAMAdjust(ch int, start, latency engine.Time) (engine.Time, engine.Time) {
	st := f.dram[ch]
	if st.dutyPeriod > 0 {
		phase := uint64(start) % st.dutyPeriod
		if phase >= st.dutyOn {
			wait := engine.Time(st.dutyPeriod - phase)
			f.DRAMStallCycles += uint64(wait)
			f.instant("dram_blackout_wait", uint64(start))
			start += wait
		}
	}
	if st.latX > 1 {
		latency = engine.Time(float64(latency) * st.latX)
	}
	return start, latency
}

// instant records a capped fault occurrence for the trace exporter.
func (f *Injector) instant(name string, ts uint64) {
	if len(f.instants) >= maxInstants {
		f.instantsDropped++
		return
	}
	f.instants = append(f.instants, telemetry.Instant{Name: name, Cat: "fault", TS: ts})
}

// PublishTelemetry publishes the fault counters and the recorded fault
// instants. Only called for faulted systems, so clean runs' metrics
// documents carry no fault_* keys and stay byte-identical to builds
// without the injector.
func (f *Injector) PublishTelemetry(r *telemetry.Registry) {
	r.Set("fault_dead_banks", uint64(len(f.deadList)))
	r.Set("fault_dead_links", uint64(f.nDeadLnk))
	r.Set("fault_link_drop_events", f.DropEvents)
	r.Set("fault_link_retransmit_flits", f.RetransmitFlits)
	r.Set("fault_detour_messages", f.DetourMessages)
	r.Set("fault_detour_extra_hops", f.DetourExtraHops)
	r.Set("fault_dram_stall_cycles", f.DRAMStallCycles)
	if len(f.spec.Kills) > 0 {
		// Only kill-bank specs carry the key, so existing faulted
		// baselines stay byte-identical.
		r.Set("fault_bank_kills", f.BankKillsApplied)
	}
	r.Set("fault_instants_dropped", f.instantsDropped)
	for _, in := range f.instants {
		r.AddInstant(in)
	}
}
