package affinityd

// Recovery restores journaled machines after a restart, in two phases
// so failure is loud and unavailability is observable:
//
//  1. PrepareRecovery — synchronous, before the listener opens. Every
//     journal in Options.JournalDir is read and verified end to end
//     (header, both checks of every frame, consecutive sequence numbers).
//     Corruption fails startup here with a typed
//     *JournalError: the daemon refuses to come up and serve a machine
//     whose history is wrong. Machines that verify are rebuilt from
//     their register record and installed in replaying mode — they
//     exist (GET answers, requests get 503 + Retry-After, never 404)
//     but serve nothing yet, and /readyz reports not-ready.
//
//  2. Replay — typically after the listener opens, so /healthz and
//     /readyz answer during a long replay. Each machine's record
//     stream is re-executed through the same placement entry points
//     serving uses; determinism makes the result byte-identical to the
//     pre-crash state. When replay reaches a snapshot record the
//     reconstructed state must match it, or replay fails with a
//     *JournalError naming the record's line. Torn journal tails are
//     truncated, journals reopen for appending, and each machine flips
//     to serving as its own replay completes.
//
// Only <id>.waj files are read; a <id>.snap file an older daemon left
// beside a journal is ignored (and removed when the machine is
// deregistered or the directory reset).

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"affinityalloc/internal/sys"
)

// RecoveryStats summarizes what recovery did.
type RecoveryStats struct {
	// Machines recovered (journals found and verified).
	Machines int
	// Records replayed across all machines: pool, alloc and free
	// records only, never register or snapshot records.
	Records int
	// TornTails truncated — journals whose final append was cut short.
	TornTails int
	// Snapshots is how many snapshot records matched replayed state.
	Snapshots int
}

func (st RecoveryStats) String() string {
	return fmt.Sprintf("%d machine(s), %d record(s) replayed, %d torn tail(s) truncated, %d snapshot(s) verified",
		st.Machines, st.Records, st.TornTails, st.Snapshots)
}

// Recovery is the handle between the two phases.
type Recovery struct {
	s       *Server
	pending []*pendingMachine
	stats   RecoveryStats
}

// pendingMachine is one verified-but-not-yet-replayed machine.
type pendingMachine struct {
	m   *machine
	log *journalLog
}

// PrepareRecovery runs phase one. On success the returned Recovery
// holds every journaled machine, installed in replaying mode; call
// Replay to reconstruct their state. With no journal directory (or an
// empty one) it returns an empty Recovery and Replay is a no-op.
func (s *Server) PrepareRecovery() (*Recovery, error) {
	r := &Recovery{s: s}
	if s.opts.JournalDir == "" {
		return r, nil
	}
	paths, err := filepath.Glob(filepath.Join(s.opts.JournalDir, "*"+journalExt))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var maxID uint64
	for _, path := range paths {
		id := strings.TrimSuffix(filepath.Base(path), journalExt)
		lg, err := readJournal(path)
		if err != nil {
			return nil, err
		}
		if lg.machineID != id {
			return nil, &JournalError{Path: path, Line: 1,
				Reason: fmt.Sprintf("header names machine %q but the file is %s%s", lg.machineID, id, journalExt)}
		}

		// The register record carries the spec the tenant actually got
		// (fleet defaults already merged at original registration), so
		// it is rebuilt verbatim — today's -seed/-policy flags don't
		// rewrite history.
		spec := lg.records[0].Spec
		cfg, err := buildConfig(spec)
		if err != nil {
			return nil, &JournalError{Path: path, Line: 2,
				Reason: fmt.Sprintf("register record does not build: %v", err)}
		}
		system, err := sys.New(cfg)
		if err != nil {
			return nil, &JournalError{Path: path, Line: 2,
				Reason: fmt.Sprintf("register record does not build: %v", err)}
		}
		m := newMachine(id, spec, cfg, system, machineOpts{
			queueDepth: s.opts.QueueDepth,
			latency:    &s.placements,
			batches:    &s.batches,
			replaying:  true,
		})
		if err := s.install(m); err != nil {
			return nil, err
		}
		s.replayingN.Add(1)
		r.pending = append(r.pending, &pendingMachine{m: m, log: lg})
		if n, err := strconv.ParseUint(strings.TrimPrefix(id, "m"), 10, 64); err == nil && n > maxID {
			maxID = n
		}
	}
	// New registrations must not collide with recovered machine IDs.
	for {
		cur := s.nextID.Load()
		if cur >= maxID || s.nextID.CompareAndSwap(cur, maxID) {
			break
		}
	}
	r.stats.Machines = len(r.pending)
	return r, nil
}

// Replay runs phase two: re-executes every verified journal, checks
// snapshot records against the reconstructed state, truncates torn
// tails, reopens journals for appending, and flips each machine to
// serving.
// On error the offending machine stays in replaying mode (still 503,
// never wrong answers) and the error says why.
func (r *Recovery) Replay() (RecoveryStats, error) {
	for _, p := range r.pending {
		if err := r.replayOne(p); err != nil {
			return r.stats, err
		}
		r.s.replayingN.Add(-1)
		r.s.recoveredMach.Add(1)
	}
	return r.stats, nil
}

func (r *Recovery) replayOne(p *pendingMachine) error {
	m, lg := p.m, p.log
	for i := range lg.records {
		rec := &lg.records[i]
		line := i + 2 // the header is line 1
		if rec.Kind == recRegister && rec.Seq != 1 {
			return &JournalError{Path: lg.path, Line: line,
				Reason: fmt.Sprintf("register record at seq %d, want 1", rec.Seq)}
		}
		if err := m.applyRecord(rec); err != nil {
			return &JournalError{Path: lg.path, Line: line, Reason: err.Error()}
		}
		switch rec.Kind {
		case recSnapshot:
			r.stats.Snapshots++
		case recPool, recAlloc, recFree:
			r.stats.Records++
			r.s.replayedRecords.Add(1)
		}
	}
	if lg.torn {
		r.stats.TornTails++
	}

	lastSeq := lg.records[len(lg.records)-1].Seq
	tornSize := int64(-1)
	if lg.torn {
		tornSize = lg.tornSize
	}
	j, err := reopenJournal(lg.path, lastSeq, tornSize, r.s.opts.SyncWrites)
	if err != nil {
		return err
	}
	m.journal = j
	m.journalSeq.Store(lastSeq)
	m.finishReplay()
	return nil
}

// Recover runs both phases back to back: verify, replay, serve. The
// convenience form for tests and callers without a listener to open in
// between.
func (s *Server) Recover() (RecoveryStats, error) {
	r, err := s.PrepareRecovery()
	if err != nil {
		return RecoveryStats{}, err
	}
	return r.Replay()
}

// RemoveJournalDir deletes every journal under dir, and every snapshot
// file an older daemon left there, leaving other files alone. Operators
// use it (via -journal-reset) to deliberately discard placement history.
func RemoveJournalDir(dir string) error {
	for _, ext := range []string{journalExt, staleSnapExt} {
		paths, err := filepath.Glob(filepath.Join(dir, "*"+ext))
		if err != nil {
			return err
		}
		for _, p := range paths {
			if err := os.Remove(p); err != nil {
				return err
			}
		}
	}
	return nil
}
