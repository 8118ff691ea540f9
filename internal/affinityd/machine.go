package affinityd

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"affinityalloc/internal/core"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/telemetry"
)

// errMachineClosed is returned for submissions racing a machine
// teardown (DELETE or server shutdown).
var errMachineClosed = errors.New("affinityd: machine closed")

// errReplaying is returned for submissions against a machine still
// replaying its journal after a restart: the placement state is not yet
// reconstructed, so serving would answer from the wrong history. The
// wire maps it to 503 + Retry-After, never 404 — the machine exists.
var errReplaying = errors.New("affinityd: machine is replaying its journal")

// errOverloaded is returned when a machine's bounded admission queue is
// full: the server sheds the request (503 + Retry-After) instead of
// queueing unboundedly. The client retry loop backs off and resubmits.
var errOverloaded = errors.New("affinityd: admission queue full")

// handle is one live allocation. Handles are owned by the machine's
// worker goroutine; nothing else reads or writes them.
type handle struct {
	base memsim.Addr
	// info is the layout record for affine AffAlloc placements; nil for
	// near chunks and baseline-heap allocations.
	info *core.ArrayInfo
	// chunk is the placement-unit size for near allocations; 0 otherwise.
	chunk int
	// baseline marks non-AffAlloc (conventional heap) allocations, which
	// cannot be freed through the runtime or used as affinity targets.
	baseline bool
	bytes    int64
}

// machine is one registered tenant machine: a full simulated system
// plus the serving state around it. Placement state (the sys.System,
// the handle table, the batch dedup cache, and the journal append side)
// is owned by a single goroutine — the worker once serving, the
// recovery goroutine during replay — while reads that the wire API
// serves concurrently live in atomics (counters) and in pools, whose
// mutex the worker holds per update and a scrape holds per copy.
type machine struct {
	id      string
	spec    MachineSpec
	cfg     sys.Config
	sys     *sys.System
	created time.Time

	jobs    chan *job
	quit    chan struct{}
	done    chan struct{}
	closing atomic.Bool
	// replaying marks a machine whose journal is still being replayed
	// after a restart; submissions get errReplaying until it clears.
	replaying atomic.Bool
	// started records whether the worker goroutine is running (false
	// while replaying), so stop knows whether to wait for it.
	started atomic.Bool
	// inflight tracks submitters between the closing check and the
	// channel send, so teardown can drain every admitted job.
	inflight sync.WaitGroup

	// handles is worker-owned: IDs of live allocations.
	handles map[string]*handle

	// Idempotency dedup, worker-owned. seen is the complete set of
	// committed batch IDs (rebuilt from the journal on recovery);
	// results keeps the batchResultCap most recent batch outcomes so a
	// retried batch returns its original placements byte-identically.
	seen    map[string]struct{}
	results map[string]jobResult
	order   []string

	// journal is the machine's write-ahead append side; nil when the
	// server runs without -journal. Owned by whichever goroutine owns
	// the placement state. journalSeq mirrors journal.seq for lock-free
	// metric scrapes.
	journal    *journal
	journalSeq atomic.Uint64
	snapshots  atomic.Uint64 // snapshot records this process appended

	// pools holds the serving counters of each interleaving, keyed by
	// interleave; 0 is the baseline heap, which has no pool.
	poolMu        sync.Mutex
	pools         map[int]*PoolInfo
	allocs        atomic.Uint64
	frees         atomic.Uint64
	allocErrs     atomic.Uint64
	handleCount   atomic.Int64
	sheds         atomic.Uint64
	deadlineDrops atomic.Uint64
	dedupHits     atomic.Uint64
	// spaceBacked and poolUsed mirror the space's host bytes materialised
	// and simulated bytes handed out (Σ Pool.Used) after each job, so a
	// scrape can check that placement costs metadata only.
	spaceBacked atomic.Uint64
	poolUsed    atomic.Uint64

	// latency is the server-wide placement-latency histogram (shared
	// across machines; the worker observes one sample per placement).
	latency *telemetry.Hist
	batches *atomic.Uint64 // admitted jobs, server-wide
}

// batchResultCap bounds the cached batch results per machine: the
// idempotency *window*. Batch IDs beyond it are still recognized as
// committed (never re-executed), but their cached response has aged
// out, so a very late retry gets a named error instead of placements.
const batchResultCap = 4096

// machineOpts carries the server-side wiring a machine is built with.
type machineOpts struct {
	queueDepth int
	journal    *journal // nil = journaling off
	latency    *telemetry.Hist
	batches    *atomic.Uint64
	// replaying builds the machine in replay mode: the worker is not
	// started and submissions 503 until finishReplay.
	replaying bool
}

func newMachine(id string, spec MachineSpec, cfg sys.Config, s *sys.System, o machineOpts) *machine {
	if o.queueDepth <= 0 {
		o.queueDepth = defaultQueueDepth
	}
	m := &machine{
		id:      id,
		spec:    spec,
		cfg:     cfg,
		sys:     s,
		created: time.Now(),
		jobs:    make(chan *job, o.queueDepth),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		handles: make(map[string]*handle),
		seen:    make(map[string]struct{}),
		results: make(map[string]jobResult),
		pools:   make(map[int]*PoolInfo),
		journal: o.journal,
		latency: o.latency,
		batches: o.batches,
	}
	if m.journal != nil {
		m.journalSeq.Store(m.journal.seq)
	}
	if o.replaying {
		m.replaying.Store(true)
		return m
	}
	m.startWorker()
	return m
}

// startWorker begins serving; placement-state ownership passes to the
// worker goroutine.
func (m *machine) startWorker() {
	m.started.Store(true)
	go m.serve()
}

// finishReplay flips a recovered machine into serving: replay has
// reconstructed the placement state, the journal is reopened for
// appends, and the worker takes ownership.
func (m *machine) finishReplay() {
	m.replaying.Store(false)
	m.startWorker()
}

// stop tears the machine down: new submissions fail, queued jobs are
// answered with errMachineClosed, the worker exits, and the journal is
// closed.
func (m *machine) stop() {
	if m.closing.CompareAndSwap(false, true) {
		close(m.quit)
	}
	if m.started.Load() {
		<-m.done
	}
	_ = m.journal.close()
}

// exec runs one job against the owned placement state: deadline check,
// idempotency dedup, write-ahead journal append, then execution. The
// append happens strictly before execution — a journaled record is a
// committed operation, and replay re-executes exactly the committed
// prefix. Conversely a job dropped before its append (expired deadline,
// journal write failure) has provably not executed, so the client may
// retry it freely.
func (m *machine) exec(j *job) jobResult {
	if j.block != nil {
		if j.entered != nil {
			close(j.entered)
		}
		<-j.block // test hook: hold the worker to fill the queue
	}
	if j.ctx != nil {
		if err := j.ctx.Err(); err != nil {
			m.deadlineDrops.Add(1)
			return jobResult{err: err}
		}
	}
	if j.batch != "" {
		if res, ok := m.committed(j.batch); ok {
			return res
		}
	}
	if m.journal != nil {
		if rec := recordForJob(j); rec != nil {
			if err := m.journal.append(rec); err != nil {
				return jobResult{err: err}
			}
			m.journalSeq.Store(m.journal.seq)
		}
	}
	res := m.apply(j)
	if j.batch != "" {
		m.remember(j.batch, res)
	}
	m.maybeSnapshot()
	return res
}

// committed answers a duplicate batch ID from the dedup cache. The
// operation is never re-executed; a retry whose result has aged out of
// the window gets a named error instead of double-allocating.
func (m *machine) committed(batch string) (jobResult, bool) {
	if _, ok := m.seen[batch]; !ok {
		return jobResult{}, false
	}
	m.dedupHits.Add(1)
	res, ok := m.results[batch]
	if !ok {
		return jobResult{err: fmt.Errorf(
			"affinityd: batch %q already committed, but its result aged out of the %d-batch idempotency window",
			batch, batchResultCap)}, true
	}
	res.replayed = true
	return res, true
}

// remember caches a committed batch's outcome, evicting the oldest
// cached result past batchResultCap. seen is never evicted: committed
// IDs stay recognized for the machine's lifetime.
func (m *machine) remember(batch string, res jobResult) {
	if _, dup := m.seen[batch]; dup {
		return
	}
	m.seen[batch] = struct{}{}
	m.results[batch] = res
	m.order = append(m.order, batch)
	if len(m.order) > batchResultCap {
		evict := m.order[0]
		m.order = m.order[1:]
		delete(m.results, evict)
	}
}

// recordForJob builds the journal record for a state-changing job; nil
// for jobs that need no durability.
func recordForJob(j *job) *Record {
	switch {
	case j.openPool != 0:
		return &Record{Kind: recPool, Interleave: j.openPool}
	case len(j.frees) > 0:
		return &Record{Kind: recFree, Batch: j.batch, Frees: j.frees}
	case len(j.allocs) > 0:
		return &Record{Kind: recAlloc, Batch: j.batch, Allocs: j.allocs}
	}
	return nil
}

// applyRecord replays one committed record during recovery: the same
// execution path as serving (apply + remember), minus re-journaling.
// Operation-level failures are not recovery failures — a journaled
// batch that failed deterministically fails identically on replay,
// which is exactly the reconstruction we want. The error is for a
// snapshot record the replayed state does not match.
func (m *machine) applyRecord(rec *Record) error {
	var j *job
	switch rec.Kind {
	case recRegister:
		return nil // consumed when the machine was rebuilt
	case recSnapshot:
		return m.checkSnapshot(rec.Snapshot)
	case recPool:
		j = &job{openPool: rec.Interleave}
	case recAlloc:
		j = &job{allocs: rec.Allocs, batch: rec.Batch}
	case recFree:
		j = &job{frees: rec.Frees, batch: rec.Batch}
	default:
		return nil // readJournal rejects unknown kinds before replay
	}
	res := m.apply(j)
	if j.batch != "" {
		m.remember(j.batch, res)
	}
	return nil
}

// snapshot captures the values a snapshot record carries.
func (m *machine) snapshot() Snapshot {
	return Snapshot{Allocs: m.allocs.Load(), LiveHandles: len(m.handles), StateSum: stateSum(m.handles)}
}

// checkSnapshot compares a snapshot record with the replayed state.
func (m *machine) checkSnapshot(want Snapshot) error {
	if got := m.snapshot(); got != want {
		return fmt.Errorf("replayed state (allocs %d, live handles %d, state sum %s) differs from the snapshot record (allocs %d, live handles %d, state sum %s)",
			got.Allocs, got.LiveHandles, got.StateSum, want.Allocs, want.LiveHandles, want.StateSum)
	}
	return nil
}

// maybeSnapshot appends a snapshot record after every snapshotEvery
// operation records. The register record and each snapshot record take
// the seq just before a run of operation records, so a run is complete
// when the seq is a multiple of snapshotEvery+1.
func (m *machine) maybeSnapshot() {
	if m.journal == nil || m.journal.seq%(snapshotEvery+1) != 0 {
		return
	}
	if m.journal.append(&Record{Kind: recSnapshot, Snapshot: m.snapshot()}) == nil {
		m.journalSeq.Store(m.journal.seq)
		m.snapshots.Add(1)
	}
}

// publishFootprint refreshes the lock-free footprint mirrors.
func (m *machine) publishFootprint() {
	var used uint64
	for _, p := range m.sys.Space.Pools() {
		used += uint64(p.Used)
	}
	m.poolUsed.Store(used)
	m.spaceBacked.Store(uint64(m.sys.Space.BackedBytes()))
}

// apply executes one job body against the owned placement state.
func (m *machine) apply(j *job) jobResult {
	defer m.publishFootprint()
	if j.openPool != 0 {
		pool, err := m.execOpenPool(j.openPool)
		return jobResult{pool: pool, err: err}
	}
	if len(j.frees) > 0 {
		return jobResult{freed: m.execFrees(j.frees)}
	}
	placements := make([]Placement, len(j.allocs))
	for i := range j.allocs {
		start := time.Now()
		placements[i] = m.execAlloc(&j.allocs[i])
		m.latency.Observe(uint64(time.Since(start)))
	}
	return jobResult{placements: placements}
}

// execAlloc places one request. Failures are per-request: the placement
// carries the error and the batch keeps going.
func (m *machine) execAlloc(req *AllocRequest) Placement {
	p, err := m.place(req)
	if err != nil {
		m.allocErrs.Add(1)
		return Placement{ID: req.ID, Error: err.Error()}
	}
	m.allocs.Add(1)
	m.handleCount.Add(1)
	return p
}

func (m *machine) place(req *AllocRequest) (Placement, error) {
	if req.ID == "" {
		return Placement{}, fmt.Errorf("allocation has no id")
	}
	if _, live := m.handles[req.ID]; live {
		return Placement{}, fmt.Errorf("id %q is already a live allocation", req.ID)
	}
	switch req.Kind {
	case "", KindAffine:
		return m.placeAffine(req)
	case KindNear:
		return m.placeNear(req)
	default:
		return Placement{}, fmt.Errorf("unknown kind %q (want %q or %q)", req.Kind, KindAffine, KindNear)
	}
}

// placeAffine serves an affine request through the same mode-aware
// sys.System.Alloc entry point library callers use.
func (m *machine) placeAffine(req *AllocRequest) (Placement, error) {
	mode := sys.AffAlloc
	if req.Mode != "" {
		var err error
		if mode, err = sys.ParseMode(req.Mode); err != nil {
			return Placement{}, err
		}
	}
	spec := core.AffineSpec{
		ElemSize:  req.ElemSize,
		NumElem:   req.NumElem,
		AlignP:    req.AlignP,
		AlignQ:    req.AlignQ,
		AlignX:    req.AlignX,
		Partition: req.Partition,
	}
	if req.AlignTo != "" {
		target, ok := m.handles[req.AlignTo]
		if !ok {
			return Placement{}, fmt.Errorf("align_to %q is not a live allocation", req.AlignTo)
		}
		if target.info == nil {
			return Placement{}, fmt.Errorf("align_to %q is not an affine placement", req.AlignTo)
		}
		spec.AlignTo = target.base
	}
	info, err := m.sys.Alloc(mode, spec)
	if err != nil {
		return Placement{}, err
	}
	h := &handle{base: info.Base, bytes: info.Bytes()}
	if mode == sys.AffAlloc {
		h.info = info
	} else {
		h.baseline = true
	}
	m.handles[req.ID] = h
	m.recordPool(info.Interleave, 1, 0, uint64(h.bytes))
	p := Placement{
		ID:         req.ID,
		Base:       uint64(info.Base),
		ElemSize:   info.ElemSize,
		ElemStride: info.ElemStride,
		NumElem:    info.NumElem,
		Interleave: info.Interleave,
		PageMapped: info.PageMapped,
		StartBank:  info.StartBank,
	}
	if mode != sys.AffAlloc {
		// Baseline placements have no runtime-chosen start bank; report
		// the bank the heap happened to land on, like the library would
		// observe through BankOf.
		p.StartBank = m.sys.BankOf(info.Base)
	}
	for _, i := range req.BankProbe {
		p.Banks = append(p.Banks, m.sys.BankOf(info.ElemAddr(clampElem(i, info.NumElem))))
	}
	return p, nil
}

// placeNear serves an irregular request, resolving affinity edges to
// element addresses of earlier placements. A near placement is a single
// element, so an edge to one resolves to its base.
func (m *machine) placeNear(req *AllocRequest) (Placement, error) {
	if len(req.Affinity) > core.MaxAffinityAddrs {
		return Placement{}, fmt.Errorf("%d affinity edges exceeds the %d cap", len(req.Affinity), core.MaxAffinityAddrs)
	}
	addrs := make([]memsim.Addr, 0, len(req.Affinity))
	for _, ref := range req.Affinity {
		target, ok := m.handles[ref.Ref]
		if !ok {
			return Placement{}, fmt.Errorf("affinity ref %q is not a live allocation", ref.Ref)
		}
		switch {
		case target.info != nil:
			addrs = append(addrs, target.info.ElemAddr(clampElem(ref.Elem, target.info.NumElem)))
		case target.baseline:
			return Placement{}, fmt.Errorf("affinity ref %q is a baseline-heap placement", ref.Ref)
		default:
			addrs = append(addrs, target.base)
		}
	}
	base, err := m.sys.AllocNear(req.Size, addrs)
	if err != nil {
		return Placement{}, err
	}
	chunk, _ := m.sys.RT.ChunkOf(base)
	bank := m.sys.BankOf(base)
	m.handles[req.ID] = &handle{base: base, chunk: chunk, bytes: int64(chunk)}
	m.recordPool(chunk, 1, 0, uint64(chunk))
	p := Placement{
		ID:         req.ID,
		Base:       uint64(base),
		ElemSize:   int(req.Size),
		ElemStride: chunk,
		NumElem:    1,
		Interleave: chunk,
		StartBank:  bank,
	}
	for range req.BankProbe {
		p.Banks = append(p.Banks, bank) // a chunk lives wholly on one bank
	}
	return p, nil
}

// execFrees releases handles by ID through the single Free entry point.
func (m *machine) execFrees(ids []string) []FreeResult {
	out := make([]FreeResult, len(ids))
	for i, id := range ids {
		out[i] = FreeResult{ID: id}
		h, ok := m.handles[id]
		if !ok {
			out[i].Error = fmt.Sprintf("id %q is not a live allocation", id)
			continue
		}
		if h.baseline {
			// Baseline-heap allocations are not runtime-managed; dropping
			// the handle is the whole release.
			delete(m.handles, id)
			m.frees.Add(1)
			m.handleCount.Add(-1)
			continue
		}
		if err := m.sys.Free(h.base); err != nil {
			out[i].Error = err.Error()
			continue
		}
		delete(m.handles, id)
		m.frees.Add(1)
		m.handleCount.Add(-1)
		interleave := h.chunk
		if h.info != nil {
			interleave = h.info.Interleave
		}
		m.recordPool(interleave, 0, 1, 0)
	}
	return out
}

// recordPool adds allocs, frees and bytes to an interleaving's counters
// and returns them. Interleave 0 — baseline-heap placements with no
// pool — shares one "no pool" entry. An entry can predate its pool (a
// page-mapped placement reports an interleave no pooled allocation has
// used yet), so Start stays 0 until the pool exists. The pool lookup is
// read-only: bookkeeping must never open a pool, or slot order (hence
// every later base address) would diverge from the library.
func (m *machine) recordPool(interleave int, allocs, frees, bytes uint64) PoolInfo {
	var start uint64
	if p := m.sys.Space.PoolIfOpen(interleave); p != nil {
		start = uint64(p.Start)
	}
	m.poolMu.Lock()
	defer m.poolMu.Unlock()
	pi := m.pools[interleave]
	if pi == nil {
		pi = &PoolInfo{Interleave: interleave}
		m.pools[interleave] = pi
	}
	if start != 0 {
		pi.Start = start
	}
	pi.Allocs += allocs
	pi.Frees += frees
	pi.Bytes += bytes
	return *pi
}

// poolInfos copies every pool's counters, sorted by interleave for
// deterministic rendering.
func (m *machine) poolInfos() []PoolInfo {
	m.poolMu.Lock()
	out := make([]PoolInfo, 0, len(m.pools))
	for _, pi := range m.pools {
		out = append(out, *pi)
	}
	m.poolMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Interleave < out[j].Interleave })
	return out
}

// execOpenPool pre-opens an interleave pool. It runs on the worker, so
// pool creation serializes with placement.
func (m *machine) execOpenPool(interleave int) (PoolInfo, error) {
	if interleave <= 0 {
		return PoolInfo{}, fmt.Errorf("interleave must be positive, got %d", interleave)
	}
	if _, err := m.sys.OpenPool(interleave); err != nil {
		return PoolInfo{}, err
	}
	return m.recordPool(interleave, 0, 0, 0), nil
}

// info builds the GET machine view from the concurrent-safe state.
func (m *machine) infoResponse() MachineInfoResponse {
	return MachineInfoResponse{
		Version:     APIVersion,
		MachineID:   m.id,
		Machine:     m.spec,
		Banks:       m.sys.Mesh.Banks(),
		LiveHandles: int(m.handleCount.Load()),
		Allocs:      m.allocs.Load(),
		Frees:       m.frees.Load(),
		AllocErrors: m.allocErrs.Load(),
		Pools:       m.poolInfos(),
	}
}

func clampElem(i, n int64) int64 {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
