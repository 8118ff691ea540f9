package affinityd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"affinityalloc/internal/sys"
	"affinityalloc/internal/telemetry"
)

// deadlineHeader carries the client's per-request deadline budget in
// whole milliseconds. The server enforces it server-side: the handler
// context expires with it, and the worker drops still-queued jobs whose
// deadline already passed instead of computing answers nobody awaits.
const deadlineHeader = "Affinityd-Timeout-Ms"

// retryAfterSeconds is the Retry-After hint on shed and not-ready 503s.
const retryAfterSeconds = 1

// Options parameterizes a Server.
type Options struct {
	// Defaults fills zero fields of every registered MachineSpec: the
	// server's -seed/-policy/-faults flags become the fleet defaults a
	// tenant inherits unless its registration overrides them.
	Defaults MachineSpec

	// JournalDir enables the per-machine write-ahead journal: every
	// committed batch is appended under this directory before it
	// executes, and Recover rebuilds byte-identical placement state
	// from it after a crash. Empty = in-memory only.
	JournalDir string
	// SyncWrites fsyncs every journal append. A kill -9 never loses
	// committed records even without it (appends are unbuffered single
	// writes); fsync is for surviving power loss at a latency cost.
	SyncWrites bool
	// QueueDepth bounds each machine's admission queue (default 256).
	// A full queue sheds with 503 + Retry-After instead of queueing
	// unboundedly.
	QueueDepth int
}

// Server is the affinityd placement service: an http.Handler serving
// the affinityd/v1 wire API over a registry of tenant machines.
//
// The hot placement path takes no server-wide lock: machine lookup is
// an atomic load of a copy-on-write registry snapshot, and everything
// per-machine funnels into that machine's worker (see machine). The
// registration path — rare — serializes on regMu to republish the
// snapshot.
type Server struct {
	defaults MachineSpec
	opts     Options
	start    time.Time

	regMu    sync.Mutex
	machines atomic.Pointer[map[string]*machine]
	nextID   atomic.Uint64
	closed   atomic.Bool
	// draining marks a server between "stop sending me traffic"
	// (/readyz flips not-ready) and actual teardown, so load balancers
	// and retrying clients move on while in-flight requests finish.
	draining atomic.Bool
	// replayingN counts machines still replaying their journals;
	// /readyz reports not-ready until it reaches zero.
	replayingN atomic.Int64

	mux *http.ServeMux

	// Serving counters, all lock-free.
	requests        atomic.Uint64
	errs            atomic.Uint64
	batches         atomic.Uint64
	recoveredMach   atomic.Uint64
	replayedRecords atomic.Uint64
	placements      telemetry.Hist // per-placement decision latency, ns
	wire            telemetry.Hist // per-request wire service latency, ns
}

// NewServer builds a server. Close releases its machines. If
// opts.JournalDir is set, call Recover (or PrepareRecovery + Replay)
// before serving traffic to restore journaled machines.
func NewServer(opts Options) *Server {
	s := &Server{defaults: opts.Defaults, opts: opts, start: time.Now()}
	empty := map[string]*machine{}
	s.machines.Store(&empty)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	s.mux.HandleFunc("POST /v1/machines", s.handleRegister)
	s.mux.HandleFunc("GET /v1/machines/{id}", s.handleMachineInfo)
	s.mux.HandleFunc("DELETE /v1/machines/{id}", s.handleDeregister)
	s.mux.HandleFunc("POST /v1/machines/{id}/pools", s.handleOpenPool)
	s.mux.HandleFunc("POST /v1/machines/{id}/alloc", s.handleAlloc)
	s.mux.HandleFunc("POST /v1/machines/{id}/free", s.handleFree)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Add(1)
	s.mux.ServeHTTP(w, r)
	s.wire.Observe(uint64(time.Since(start)))
}

// Drain flips /readyz to not-ready without tearing anything down, so
// traffic moves elsewhere while in-flight requests finish. Call it when
// shutdown begins, before the HTTP server's graceful drain.
func (s *Server) Drain() {
	s.draining.Store(true)
}

// Close stops every machine worker. In-flight requests racing Close get
// a machine-closed error; call it after the HTTP server has drained.
func (s *Server) Close() {
	s.closed.Store(true)
	s.draining.Store(true)
	s.regMu.Lock()
	snap := *s.machines.Load()
	empty := map[string]*machine{}
	s.machines.Store(&empty)
	s.regMu.Unlock()
	for _, m := range snap {
		m.stop()
	}
}

// Requests returns the total wire requests served.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// lookup resolves a machine lock-free.
func (s *Server) lookup(id string) *machine {
	return (*s.machines.Load())[id]
}

// buildConfig resolves a MachineSpec (with server defaults applied)
// into a sys.Config by the rule a trace scenario's header follows.
func buildConfig(spec MachineSpec) (sys.Config, error) {
	return spec.scenario().Config()
}

// merge fills zero fields of spec from the server defaults.
func (s *Server) merge(spec MachineSpec) MachineSpec {
	if spec.MeshW == 0 {
		spec.MeshW = s.defaults.MeshW
	}
	if spec.MeshH == 0 {
		spec.MeshH = s.defaults.MeshH
	}
	if spec.Seed == 0 {
		spec.Seed = s.defaults.Seed
	}
	if spec.Policy == "" {
		spec.Policy = s.defaults.Policy
	}
	if spec.Faults == "" {
		spec.Faults = s.defaults.Faults
	}
	return spec
}

// machineOpts assembles the wiring a new machine shares with the server.
func (s *Server) machineOpts(j *journal) machineOpts {
	return machineOpts{
		queueDepth: s.opts.QueueDepth,
		journal:    j,
		latency:    &s.placements,
		batches:    &s.batches,
	}
}

// Register assembles and registers a machine, returning its wire
// description. It is the programmatic form of POST /v1/machines.
func (s *Server) Register(spec MachineSpec) (RegisterResponse, error) {
	spec = s.merge(spec)
	cfg, err := buildConfig(spec)
	if err != nil {
		return RegisterResponse{}, err
	}
	system, err := sys.New(cfg)
	if err != nil {
		return RegisterResponse{}, err
	}
	id := fmt.Sprintf("m%06d", s.nextID.Add(1))

	var j *journal
	if s.opts.JournalDir != "" {
		// The journal records the *merged* spec: replay must rebuild
		// the machine a tenant actually got, not what a future restart's
		// fleet defaults would hand out.
		if j, err = createJournal(s.opts.JournalDir, id, s.opts.SyncWrites); err != nil {
			return RegisterResponse{}, err
		}
		if err := j.append(&Record{Kind: recRegister, Spec: spec}); err != nil {
			j.close()
			return RegisterResponse{}, err
		}
	}
	m := newMachine(id, spec, cfg, system, s.machineOpts(j))

	if err := s.install(m); err != nil {
		m.stop()
		return RegisterResponse{}, err
	}

	resp := RegisterResponse{
		Version:   APIVersion,
		MachineID: id,
		MeshW:     cfg.MeshW,
		MeshH:     cfg.MeshH,
		Banks:     system.Mesh.Banks(),
	}
	if system.Faults != nil {
		resp.DeadBanks = system.Faults.DeadBankList()
	}
	return resp, nil
}

// install publishes a machine into the copy-on-write registry.
func (s *Server) install(m *machine) error {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if s.closed.Load() {
		return errMachineClosed
	}
	old := *s.machines.Load()
	next := make(map[string]*machine, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[m.id] = m
	s.machines.Store(&next)
	return nil
}

// deregister removes and stops a machine; reports whether it existed.
// A journaled machine's journal is removed with it, and any snapshot
// file an older daemon left beside it — deregistration is the tenant
// saying this placement history is over.
func (s *Server) deregister(id string) bool {
	s.regMu.Lock()
	old := *s.machines.Load()
	m, ok := old[id]
	if ok {
		next := make(map[string]*machine, len(old)-1)
		for k, v := range old {
			if k != id {
				next[k] = v
			}
		}
		s.machines.Store(&next)
	}
	s.regMu.Unlock()
	if ok {
		m.stop()
		if dir := s.opts.JournalDir; dir != "" {
			os.Remove(journalPath(dir, id))
			os.Remove(filepath.Join(dir, id+staleSnapExt))
		}
	}
	return ok
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "version": APIVersion})
}

// handleReadyz is readiness, distinct from liveness: a healthy daemon
// mid-replay or mid-drain answers /healthz 200 (don't restart me) and
// /readyz 503 (don't send me traffic yet / anymore).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if reason, ready := s.readiness(); !ready {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "not-ready", "reason": reason, "version": APIVersion,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready", "version": APIVersion})
}

// readiness reports whether the server should receive traffic.
func (s *Server) readiness() (reason string, ready bool) {
	if s.closed.Load() {
		return "closed", false
	}
	if s.draining.Load() {
		return "draining", false
	}
	if n := s.replayingN.Load(); n > 0 {
		return fmt.Sprintf("replaying %d machine journal(s)", n), false
	}
	return "", true
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !s.decode(w, r, &req) {
		return
	}
	resp, err := s.Register(req.Machine)
	if err != nil {
		if errors.Is(err, errMachineClosed) {
			s.fail(w, http.StatusServiceUnavailable, err)
			return
		}
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMachineInfo(w http.ResponseWriter, r *http.Request) {
	m := s.lookup(r.PathValue("id"))
	if m == nil {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown machine %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, m.infoResponse())
}

func (s *Server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.deregister(id) {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown machine %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"version": APIVersion, "machine_id": id, "status": "deleted"})
}

func (s *Server) handleOpenPool(w http.ResponseWriter, r *http.Request) {
	m := s.lookup(r.PathValue("id"))
	if m == nil {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown machine %q", r.PathValue("id")))
		return
	}
	var req OpenPoolRequest
	if !s.decode(w, r, &req) {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	res, err := s.run(ctx, m, &job{openPool: req.Interleave})
	if err != nil {
		s.failSubmit(w, err)
		return
	}
	if res.err != nil {
		s.fail(w, http.StatusBadRequest, res.err)
		return
	}
	writeJSON(w, http.StatusOK, OpenPoolResponse{Version: APIVersion, MachineID: m.id, Pool: res.pool})
}

func (s *Server) handleAlloc(w http.ResponseWriter, r *http.Request) {
	m := s.lookup(r.PathValue("id"))
	if m == nil {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown machine %q", r.PathValue("id")))
		return
	}
	var req BatchAllocRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	res, err := s.run(ctx, m, &job{allocs: req.Requests, batch: req.BatchID})
	if err != nil {
		s.failSubmit(w, err)
		return
	}
	if res.err != nil {
		s.fail(w, http.StatusConflict, res.err)
		return
	}
	writeJSON(w, http.StatusOK, BatchAllocResponse{
		Version: APIVersion, MachineID: m.id,
		Placements: res.placements, Replayed: res.replayed,
	})
}

func (s *Server) handleFree(w http.ResponseWriter, r *http.Request) {
	m := s.lookup(r.PathValue("id"))
	if m == nil {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown machine %q", r.PathValue("id")))
		return
	}
	var req FreeRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("empty free batch"))
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	res, err := s.run(ctx, m, &job{frees: req.IDs, batch: req.BatchID})
	if err != nil {
		s.failSubmit(w, err)
		return
	}
	if res.err != nil {
		s.fail(w, http.StatusConflict, res.err)
		return
	}
	writeJSON(w, http.StatusOK, FreeResponse{
		Version: APIVersion, MachineID: m.id,
		Results: res.freed, Replayed: res.replayed,
	})
}

// requestContext derives the handler context: the connection context,
// bounded further by the client's propagated deadline budget when the
// request carries one.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if v := r.Header.Get(deadlineHeader); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		}
	}
	return context.WithCancel(ctx)
}

// run submits a job and waits for its reply or the request deadline,
// whichever comes first. The worker's reply channel is buffered, so an
// abandoned job cannot wedge the worker; if the job was already
// journaled it will still execute (committed is committed) and a retry
// with the same batch ID collects the original result.
func (s *Server) run(ctx context.Context, m *machine, j *job) (jobResult, error) {
	j.ctx = ctx
	j.out = make(chan jobResult, 1)
	if err := m.submit(j); err != nil {
		return jobResult{}, err
	}
	select {
	case res := <-j.out:
		if res.err != nil {
			switch {
			case errors.Is(res.err, errMachineClosed),
				errors.Is(res.err, context.DeadlineExceeded),
				errors.Is(res.err, context.Canceled):
				return jobResult{}, res.err
			}
		}
		return res, nil
	case <-ctx.Done():
		return jobResult{}, ctx.Err()
	}
}

func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	doc := s.MetricsDocument()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = doc.WriteJSON(w)
}

// MetricsDocument exports the serving telemetry as the repository's
// standard schema-validated metrics Document: one "affinityd" cell with
// the server-wide counters and latency histograms, then one cell per
// machine, sorted by ID. The "cycles" scalar — a simulated-time concept
// the document schema requires — carries wall-clock nanoseconds of
// uptime here, the service's notion of elapsed time.
func (s *Server) MetricsDocument() *telemetry.Document {
	doc := &telemetry.Document{
		SchemaVersion: telemetry.SchemaVersion,
		Experiment:    "affinityd",
		Scale:         "service",
		Seed:          s.defaults.Seed,
	}
	snap := *s.machines.Load()

	var sheds, drops, dedups, snaps uint64
	for _, m := range snap {
		sheds += m.sheds.Load()
		drops += m.deadlineDrops.Load()
		dedups += m.dedupHits.Load()
		snaps += m.snapshots.Load()
	}

	r := telemetry.NewRegistry()
	r.Set("cycles", uint64(time.Since(s.start)))
	r.Set("requests", s.requests.Load())
	r.Set("request_errors", s.errs.Load())
	r.Set("batches_admitted", s.batches.Load())
	r.Set("machines", uint64(len(snap)))
	r.Set("sheds", sheds)
	r.Set("deadline_drops", drops)
	r.Set("batch_dedup_hits", dedups)
	r.Set("snapshots", snaps)
	r.Set("machines_recovered", s.recoveredMach.Load())
	r.Set("replayed_records", s.replayedRecords.Load())
	if _, ready := s.readiness(); ready {
		r.Set("ready", 1)
	} else {
		r.Set("ready", 0)
	}
	s.placements.Publish(r, "placement_latency_ns")
	s.wire.Publish(r, "request_latency_ns")
	doc.AddCell("affinityd", r.Snapshot())

	ids := make([]string, 0, len(snap))
	for id := range snap {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m := snap[id]
		r := telemetry.NewRegistry()
		r.Set("cycles", uint64(time.Since(m.created)))
		r.Set("allocs", m.allocs.Load())
		r.Set("frees", m.frees.Load())
		r.Set("alloc_errors", m.allocErrs.Load())
		r.Set("live_handles", uint64(m.handleCount.Load()))
		r.Set("sheds", m.sheds.Load())
		r.Set("deadline_drops", m.deadlineDrops.Load())
		r.Set("batch_dedup_hits", m.dedupHits.Load())
		r.Set("space_backed_bytes", m.spaceBacked.Load())
		r.Set("pool_used_bytes", m.poolUsed.Load())
		if m.journal != nil || m.journalSeq.Load() > 0 {
			r.Set("journal_seq", m.journalSeq.Load())
			r.Set("snapshots", m.snapshots.Load())
		}
		if pools := m.poolInfos(); len(pools) > 0 {
			interleaves := make([]uint64, len(pools))
			allocs := make([]uint64, len(pools))
			bytes := make([]uint64, len(pools))
			for i, p := range pools {
				interleaves[i] = uint64(p.Interleave)
				allocs[i] = p.Allocs
				bytes[i] = p.Bytes
			}
			r.SetSeries("pool_interleaves", interleaves)
			r.SetSeries("pool_allocs", allocs)
			r.SetSeries("pool_bytes", bytes)
		}
		doc.AddCell("machine/"+id, r.Snapshot())
	}
	return doc
}

// decode parses a JSON body, failing the request on error.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// failSubmit maps admission and execution-path errors onto the wire:
// shed and mid-replay are retryable 503s carrying Retry-After, a closed
// machine is a plain 503 (the tenant raced a teardown), an expired
// deadline is 504, anything else a plain 400.
func (s *Server) failSubmit(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errOverloaded), errors.Is(err, errReplaying):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		s.fail(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, errMachineClosed):
		s.fail(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.fail(w, http.StatusGatewayTimeout, err)
	default:
		s.fail(w, http.StatusBadRequest, err)
	}
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.errs.Add(1)
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
