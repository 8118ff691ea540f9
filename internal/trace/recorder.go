package trace

import (
	"sort"
	"sync"

	"affinityalloc/internal/core"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/sys"
)

// FlushEvery bounds how many accesses aggregate into one access-summary
// epoch before the recorder flushes them as events — coarse temporal
// ordering without per-access event volume.
const FlushEvery = 8192

// minGran is the smallest chunk granularity of an access summary.
const minGran = memsim.LineSize

// touchesPerAlloc is the target number of chunks per allocation in an
// access summary; granularity = footprint/touchesPerAlloc, line-clamped.
const touchesPerAlloc = 64

// Recorder turns observer callbacks from a live system into one
// Scenario. It implements core.Observer, cache.AccessObserver and
// stream.IssueObserver; Attach installs it on all three hooks. The
// recorder only aggregates into private state — it never calls back
// into the system — so a recording run is byte-identical to a direct
// run. It is single-goroutine, like the system it observes.
type Recorder struct {
	sc    *Scenario
	space *memsim.Space

	nextID int64
	// live is the sorted interval index of live recorded allocations,
	// resolving raw hint/access addresses to symbolic (ID, offset) refs.
	live []liveAlloc

	// Pending access aggregation, flushed on FlushEvery accesses and
	// before any allocator event (so summaries stay ordered relative to
	// the allocations they touch).
	pend      map[int64]*allocAgg
	wild      map[int64]*rw // keyed by absolute line index
	nAccesses int

	// Pending stream-issue aggregation, flushed with accesses.
	offloads map[[2]int]uint32
	migs     map[[2]int]uint32
}

type liveAlloc struct {
	start, end memsim.Addr
	id         int64
	info       *core.ArrayInfo // nil for chunk/base allocations
}

type rw struct{ reads, writes uint32 }

type allocAgg struct {
	gran    int64
	touches map[int64]*rw
}

// NewRecorder builds a recorder for one scenario.
func NewRecorder(label string) *Recorder {
	return &Recorder{
		sc:       &Scenario{Label: label},
		pend:     make(map[int64]*allocAgg),
		wild:     make(map[int64]*rw),
		offloads: make(map[[2]int]uint32),
		migs:     make(map[[2]int]uint32),
	}
}

// Begin stamps the scenario header from the configuration and mode the
// run is about to execute under. Call before Attach.
func (r *Recorder) Begin(cfg sys.Config, mode sys.Mode) {
	if r == nil {
		return
	}
	r.sc.Mode = mode.String()
	r.sc.MeshW, r.sc.MeshH = cfg.MeshW, cfg.MeshH
	r.sc.Seed = cfg.Seed
	r.sc.Policy = cfg.Policy.String()
	if !cfg.Faults.Empty() {
		r.sc.Faults = cfg.Faults.String()
	}
}

// Attach installs the recorder on the system's three observer hooks:
// the allocator, the memory system, and the stream engine.
func (r *Recorder) Attach(s *sys.System) {
	if r == nil {
		return
	}
	r.space = s.Space
	s.RT.SetObserver(r)
	s.Mem.SetObserver(r)
	s.SE.SetIssueObserver(r)
}

// Finish flushes pending aggregation and stamps the run's finish time.
func (r *Recorder) Finish(cycles uint64) {
	if r == nil {
		return
	}
	r.flush()
	r.sc.Cycles = cycles
}

// Scenario returns the recorded scenario (nil receiver: nil).
func (r *Recorder) Scenario() *Scenario {
	if r == nil {
		return nil
	}
	return r.sc
}

// --- symbolic address resolution ---

// insertLive registers a live allocation interval.
func (r *Recorder) insertLive(start memsim.Addr, bytes int64, id int64, info *core.ArrayInfo) {
	if bytes <= 0 {
		bytes = memsim.LineSize
	}
	la := liveAlloc{start: start, end: start + memsim.Addr(bytes), id: id, info: info}
	i := sort.Search(len(r.live), func(i int) bool { return r.live[i].start >= start })
	r.live = append(r.live, liveAlloc{})
	copy(r.live[i+1:], r.live[i:])
	r.live[i] = la
}

// lookupLive resolves an address to the live allocation containing it.
func (r *Recorder) lookupLive(addr memsim.Addr) (liveAlloc, bool) {
	i := sort.Search(len(r.live), func(i int) bool { return r.live[i].start > addr })
	if i == 0 {
		return liveAlloc{}, false
	}
	la := r.live[i-1]
	if addr >= la.end {
		return liveAlloc{}, false
	}
	return la, true
}

// removeLive drops the allocation starting exactly at addr, returning
// its ID.
func (r *Recorder) removeLive(addr memsim.Addr) (int64, bool) {
	i := sort.Search(len(r.live), func(i int) bool { return r.live[i].start >= addr })
	if i >= len(r.live) || r.live[i].start != addr {
		return 0, false
	}
	id := r.live[i].id
	r.live = append(r.live[:i], r.live[i+1:]...)
	return id, true
}

// symRef converts a raw affinity-hint address into a symbolic Ref.
func (r *Recorder) symRef(addr memsim.Addr) Ref {
	la, ok := r.lookupLive(addr)
	if !ok {
		return Ref{Elem: -1, Raw: uint64(addr)}
	}
	off := int64(addr - la.start)
	ref := Ref{Ref: la.id, Elem: -1, Off: off}
	if la.info != nil && la.info.ElemStride > 0 && off%int64(la.info.ElemStride) == 0 {
		if e := off / int64(la.info.ElemStride); e < la.info.NumElem {
			ref.Elem = e
		}
	}
	return ref
}

// --- core.Observer ---

// ObserveOpenPool implements core.Observer.
func (r *Recorder) ObserveOpenPool(interleave int) {
	r.flush()
	r.sc.Events = append(r.sc.Events, Event{Kind: KindOpenPool, Interleave: interleave})
}

// ObserveAffine implements core.Observer.
func (r *Recorder) ObserveAffine(spec core.AffineSpec, forcedBank int, info *core.ArrayInfo, err error) {
	r.flush()
	e := Event{
		Kind: KindAlloc, Op: OpAffine,
		ElemSize: spec.ElemSize, NumElem: spec.NumElem,
		AlignP: spec.AlignP, AlignQ: spec.AlignQ, AlignX: spec.AlignX,
		Part: spec.Partition,
	}
	if forcedBank >= 0 {
		e.Op = OpAffineBank
		e.Bank = forcedBank
	}
	if spec.AlignTo != 0 {
		if la, ok := r.lookupLive(spec.AlignTo); ok && la.start == spec.AlignTo {
			e.AlignRef = la.id
		} else {
			e.AlignRaw = uint64(spec.AlignTo)
		}
	}
	r.nextID++
	if err != nil {
		e.Err = err.Error()
	} else {
		e.Base = uint64(info.Base)
		e.ResIl = info.Interleave
		e.Stride = info.ElemStride
		e.StartBank = info.StartBank
		e.PageMapped = info.PageMapped
		r.insertLive(info.Base, info.Bytes(), r.nextID, info)
	}
	r.sc.Events = append(r.sc.Events, e)
}

// ObserveNear implements core.Observer.
func (r *Recorder) ObserveNear(size int64, affinity []memsim.Addr, forcedBank int, addr memsim.Addr, chunk int, err error) {
	r.flush()
	e := Event{Kind: KindAlloc, Op: OpNear, Size: size}
	if forcedBank >= 0 {
		e.Op = OpNearBank
		e.Bank = forcedBank
	}
	for _, a := range affinity {
		e.Affinity = append(e.Affinity, r.symRef(a))
	}
	r.nextID++
	if err != nil {
		e.Err = err.Error()
	} else {
		e.Base = uint64(addr)
		e.ResIl = chunk
		r.insertLive(addr, int64(chunk), r.nextID, nil)
	}
	r.sc.Events = append(r.sc.Events, e)
}

// ObserveBase implements core.Observer.
func (r *Recorder) ObserveBase(size int64, addr memsim.Addr, err error) {
	r.flush()
	e := Event{Kind: KindAlloc, Op: OpBase, Size: size}
	r.nextID++
	if err != nil {
		e.Err = err.Error()
	} else {
		e.Base = uint64(addr)
		r.insertLive(addr, size, r.nextID, nil)
	}
	r.sc.Events = append(r.sc.Events, e)
}

// ObserveFree implements core.Observer.
func (r *Recorder) ObserveFree(addr memsim.Addr, err error) {
	r.flush()
	e := Event{Kind: KindFree}
	// A free that failed (err != nil) never matched a live allocation, so
	// it records as a raw-address free and replays the same failure.
	_ = err
	if id, ok := r.removeLive(addr); ok {
		e.Ref = id
	} else {
		e.Raw = uint64(addr)
	}
	r.sc.Events = append(r.sc.Events, e)
}

// --- cache.AccessObserver ---

// ObserveAccess implements cache.AccessObserver: aggregate the access
// into its owner's chunk-touch map.
func (r *Recorder) ObserveAccess(va memsim.Addr, write bool) {
	la, ok := r.lookupLive(va)
	if !ok {
		line := int64(memsim.Line(va))
		c := r.wild[line]
		if c == nil {
			c = &rw{}
			r.wild[line] = c
		}
		c.bump(write)
	} else {
		agg := r.pend[la.id]
		if agg == nil {
			agg = &allocAgg{gran: granFor(int64(la.end - la.start)), touches: make(map[int64]*rw)}
			r.pend[la.id] = agg
		}
		chunk := int64(va-la.start) / agg.gran
		c := agg.touches[chunk]
		if c == nil {
			c = &rw{}
			agg.touches[chunk] = c
		}
		c.bump(write)
	}
	r.nAccesses++
	if r.nAccesses >= FlushEvery {
		r.flush()
	}
}

func (c *rw) bump(write bool) {
	if write {
		c.writes++
	} else {
		c.reads++
	}
}

// ObservePreload implements cache.AccessObserver.
func (r *Recorder) ObservePreload(va memsim.Addr, bytes int64) {
	r.flush()
	e := Event{Kind: KindPreload, Size: bytes}
	if la, ok := r.lookupLive(va); ok {
		e.Ref = la.id
		e.Off = int64(va - la.start)
	} else {
		e.Raw = uint64(va)
	}
	r.sc.Events = append(r.sc.Events, e)
}

// granFor picks the access-summary chunk granularity for a footprint.
func granFor(bytes int64) int64 {
	g := bytes / touchesPerAlloc
	if g < minGran {
		return minGran
	}
	// Round to a power of two so chunk indexes are stable.
	p := int64(minGran)
	for p < g {
		p <<= 1
	}
	return p
}

// --- stream.IssueObserver ---

// ObserveOffload implements stream.IssueObserver.
func (r *Recorder) ObserveOffload(coreTile, firstBank int) {
	r.offloads[[2]int{coreTile, firstBank}]++
}

// ObserveMigrate implements stream.IssueObserver.
func (r *Recorder) ObserveMigrate(from, to int) {
	r.migs[[2]int{from, to}]++
}

// --- epoch flush ---

// flush drains pending access and stream aggregation into events, in
// canonical (sorted) order so recording is deterministic.
func (r *Recorder) flush() {
	if len(r.pend) > 0 || len(r.wild) > 0 {
		ids := make([]int64, 0, len(r.pend))
		for id := range r.pend {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			agg := r.pend[id]
			e := Event{Kind: KindAccess, Ref: id, Gran: agg.gran}
			for chunk, c := range agg.touches {
				e.Touches = append(e.Touches, Touch{Chunk: chunk, Reads: c.reads, Writes: c.writes})
			}
			sortTouches(e.Touches)
			r.sc.Events = append(r.sc.Events, e)
		}
		if len(r.wild) > 0 {
			e := Event{Kind: KindAccess, Gran: memsim.LineSize}
			for line, c := range r.wild {
				e.Touches = append(e.Touches, Touch{Chunk: line, Reads: c.reads, Writes: c.writes})
			}
			sortTouches(e.Touches)
			r.sc.Events = append(r.sc.Events, e)
		}
		r.pend = make(map[int64]*allocAgg)
		r.wild = make(map[int64]*rw)
	}
	r.nAccesses = 0
	if len(r.offloads) > 0 || len(r.migs) > 0 {
		e := Event{Kind: KindStream}
		for k, n := range r.offloads {
			e.Offloads = append(e.Offloads, Flow{From: k[0], To: k[1], N: n})
		}
		for k, n := range r.migs {
			e.Migs = append(e.Migs, Flow{From: k[0], To: k[1], N: n})
		}
		sortFlows(e.Offloads)
		sortFlows(e.Migs)
		r.sc.Events = append(r.sc.Events, e)
		r.offloads = make(map[[2]int]uint32)
		r.migs = make(map[[2]int]uint32)
	}
}

// --- slot-ordered collection across parallel harness cells ---

// Collector accumulates recorded scenarios across a harness run in
// reservation order, mirroring the telemetry Collector: slots are
// reserved serially before cells launch, each worker fills its own
// slot, and Trace returns non-nil scenarios in slot order — so the
// written trace is byte-identical for every -j. A nil *Collector
// records nothing (Recorder returns nil).
type Collector struct {
	mu    sync.Mutex
	slots []*Scenario
}

// NewCollector builds an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Reserve claims n consecutive slots and returns the first index.
func (c *Collector) Reserve(n int) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	base := len(c.slots)
	c.slots = append(c.slots, make([]*Scenario, n)...)
	return base
}

// NewRecorder builds a recorder for one cell, or nil when the
// collector itself is nil (recording off).
func (c *Collector) NewRecorder(label string) *Recorder {
	if c == nil {
		return nil
	}
	return NewRecorder(label)
}

// Put fills a reserved slot with a completed recorder's scenario.
func (c *Collector) Put(slot int, sc *Scenario) {
	if c == nil || sc == nil {
		return
	}
	c.mu.Lock()
	c.slots[slot] = sc
	c.mu.Unlock()
}

// Trace returns the collected scenarios in reservation order, skipping
// slots whose cell failed.
func (c *Collector) Trace() *Trace {
	if c == nil {
		return &Trace{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &Trace{}
	for _, sc := range c.slots {
		if sc != nil {
			t.Scenarios = append(t.Scenarios, sc)
		}
	}
	return t
}
