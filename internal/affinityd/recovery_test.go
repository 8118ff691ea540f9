package affinityd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// newJournaledServer builds a server journaling into dir, wired through
// httptest like newTestServer.
func newJournaledServer(t *testing.T, dir string, opts Options) (*Server, *Client, func()) {
	t.Helper()
	opts.JournalDir = dir
	srv := NewServer(opts)
	ts := httptest.NewServer(srv)
	stop := func() {
		ts.Close()
		srv.Close()
	}
	return srv, NewClient(ts.URL), stop
}

// snapshotRounds rounds of 16 requests from a StreamGen commit an alloc
// and a free record each, about 279 records: past the first snapshot
// record, which follows the 256th operation record.
const snapshotRounds = 140

// drive pushes rounds of one seeded stream at a machine and returns
// every placement, in order.
func drive(t *testing.T, client *Client, machineID string, gen *StreamGen, rounds, perRound int) []Placement {
	t.Helper()
	var out []Placement
	for r := 0; r < rounds; r++ {
		st := gen.NextStep(perRound)
		resp, err := client.Alloc(bg, machineID, st.AllocBatch, st.Allocs)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, resp.Placements...)
		if len(st.Frees) > 0 {
			if _, err := client.Free(bg, machineID, st.FreeBatch, st.Frees); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// TestCrashRecoveryDifferential is the durability tentpole gate: a
// journaled server is abandoned mid-stream with no shutdown of any kind
// (the in-process stand-in for kill -9 — nothing is flushed, closed, or
// drained), a fresh server recovers from the same journal directory,
// the stream continues, and every placement must be byte-identical to
// an uninterrupted run of the same seeded stream.
func TestCrashRecoveryDifferential(t *testing.T) {
	const seed, rounds, perRound, crashAt = 7, snapshotRounds + 12, 16, snapshotRounds

	// The uninterrupted oracle.
	_, oracleClient := newTestServer(t)
	oreg, err := oracleClient.Register(bg, MachineSpec{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	oracle := drive(t, oracleClient, oreg.MachineID, NewStreamGen(seed, 0), rounds, perRound)

	// The crashed run: journal on, and enough records before the crash
	// that replay crosses a snapshot record.
	dir := t.TempDir()
	srv1, client1, _ := newJournaledServer(t, dir, Options{})
	reg, err := client1.Register(bg, MachineSpec{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	gen := NewStreamGen(seed, 0)
	got := drive(t, client1, reg.MachineID, gen, crashAt, perRound)
	// Crash: the server object and its workers are simply abandoned.
	// Journal appends happened before each execution, so everything the
	// client saw is on disk. (The HTTP listener is left up too; it just
	// stops receiving requests, like a partitioned dead process.)
	_ = srv1

	lg, err := readJournal(journalPath(dir, reg.MachineID))
	if err != nil {
		t.Fatal(err)
	}
	ops := 0
	for _, rec := range lg.records {
		if rec.Kind != recRegister && rec.Kind != recSnapshot {
			ops++
		}
	}

	// Restart on the same journal directory.
	srv2, client2, stop2 := newJournaledServer(t, dir, Options{})
	stats, err := srv2.Recover()
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer stop2()
	if stats.Machines != 1 || stats.Records == 0 {
		t.Fatalf("recovery stats %+v, want 1 machine and replayed records", stats)
	}
	if stats.Snapshots == 0 {
		t.Fatalf("recovery stats %+v: replay never verified a snapshot", stats)
	}
	if stats.Records != ops {
		t.Errorf("recovery replayed %d records, want the %d operation records; snapshot records are not operations", stats.Records, ops)
	}

	// The machine survives the crash under the same ID, and the stream
	// continues where it left off.
	info, err := client2.MachineInfo(bg, reg.MachineID)
	if err != nil {
		t.Fatalf("machine lost across crash: %v", err)
	}
	if info.Allocs == 0 {
		t.Fatal("recovered machine has empty counters")
	}
	got = append(got, drive(t, client2, reg.MachineID, gen, rounds-crashAt, perRound)...)

	wire, _ := json.Marshal(got)
	want, _ := json.Marshal(oracle)
	if !bytes.Equal(wire, want) {
		for i := range got {
			a, _ := json.Marshal(got[i])
			b, _ := json.Marshal(oracle[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("first divergence at placement %d:\n crashed run: %s\n oracle:      %s", i, a, b)
			}
		}
		t.Fatalf("placement streams differ in length: %d vs %d", len(got), len(oracle))
	}

	// New registrations must not collide with the recovered machine ID.
	reg2, err := client2.Register(bg, MachineSpec{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if reg2.MachineID == reg.MachineID {
		t.Fatalf("recovered server reissued machine ID %s", reg2.MachineID)
	}
}

// TestRecoverySpecPinning pins that replay rebuilds the machine from
// the journaled (merged) spec, not from the restarted server's fleet
// defaults: a machine registered under seed 7 defaults must place
// identically even when the recovering server's defaults changed.
func TestRecoverySpecPinning(t *testing.T) {
	const rounds, perRound = 6, 8
	dir := t.TempDir()
	_, client1, _ := newJournaledServer(t, dir, Options{Defaults: MachineSpec{Seed: 7}})
	reg, err := client1.Register(bg, MachineSpec{}) // inherits seed 7
	if err != nil {
		t.Fatal(err)
	}
	gen := NewStreamGen(7, 0)
	before := drive(t, client1, reg.MachineID, gen, rounds, perRound)

	// Restart with different defaults; history must win.
	srv2, client2, stop2 := newJournaledServer(t, dir, Options{Defaults: MachineSpec{Seed: 12345, Policy: "rnd"}})
	if _, err := srv2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer stop2()
	info, err := client2.MachineInfo(bg, reg.MachineID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Machine.Seed != 7 {
		t.Fatalf("recovered machine has seed %d, want the journaled 7", info.Machine.Seed)
	}
	if int(info.Allocs) != countOK(before) {
		t.Fatalf("recovered allocs %d, want %d", info.Allocs, countOK(before))
	}
}

func countOK(ps []Placement) int {
	n := 0
	for _, p := range ps {
		if p.Error == "" {
			n++
		}
	}
	return n
}

// TestReplayingMachineAnswers503 pins the not-ready surface: between
// PrepareRecovery and Replay a machine exists but serves nothing —
// requests get a retryable 503 with Retry-After (never 404), and
// /readyz reports not-ready while /healthz stays 200.
func TestReplayingMachineAnswers503(t *testing.T) {
	dir := t.TempDir()
	_, client1, _ := newJournaledServer(t, dir, Options{})
	reg, err := client1.Register(bg, MachineSpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client1.Alloc(bg, reg.MachineID, "b1", []AllocRequest{{ID: "a", ElemSize: 4, NumElem: 64}}); err != nil {
		t.Fatal(err)
	}

	srv2 := NewServer(Options{JournalDir: dir})
	ts := httptest.NewServer(srv2)
	defer ts.Close()
	defer srv2.Close()
	rec, err := srv2.PrepareRecovery()
	if err != nil {
		t.Fatal(err)
	}

	// Mid-replay: healthy but not ready.
	client2 := NewClient(ts.URL)
	client2.MaxRetries = -1 // observe the raw 503s, no retry
	if !client2.Healthy(bg) {
		t.Error("mid-replay server not healthy — /healthz is liveness, it must answer")
	}
	if client2.Ready(bg) {
		t.Error("mid-replay server claims ready")
	}

	body := `{"batch_id":"b2","requests":[{"id":"x","elem_size":4,"num_elem":64}]}`
	resp, err := http.Post(ts.URL+"/v1/machines/"+reg.MachineID+"/alloc", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-replay alloc got %d, want 503 (a replaying machine must not 404)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("mid-replay 503 carries no Retry-After")
	}

	// The typed error surfaces through the client too.
	var ae *APIError
	if _, err := client2.Alloc(bg, reg.MachineID, "b2", []AllocRequest{{ID: "x", ElemSize: 4, NumElem: 64}}); !errors.As(err, &ae) || ae.Status != 503 || ae.RetryAfter <= 0 {
		t.Errorf("client saw %v, want *APIError with status 503 and Retry-After", err)
	}

	if _, err := rec.Replay(); err != nil {
		t.Fatal(err)
	}
	if !client2.Ready(bg) {
		t.Error("server not ready after replay completed")
	}
	if _, err := client2.Alloc(bg, reg.MachineID, "b2", []AllocRequest{{ID: "x", ElemSize: 4, NumElem: 64}}); err != nil {
		t.Errorf("alloc after replay: %v", err)
	}
}

// TestDuplicateBatchReturnsOriginal pins the idempotency contract: a
// batch ID the machine already committed returns the original
// placements (marked replayed) instead of re-executing — within one
// server lifetime and across a crash+recovery.
func TestDuplicateBatchReturnsOriginal(t *testing.T) {
	dir := t.TempDir()
	_, client, _ := newJournaledServer(t, dir, Options{})
	reg, err := client.Register(bg, MachineSpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []AllocRequest{{ID: "a", ElemSize: 4, NumElem: 1 << 12, BankProbe: []int64{0, 7}}}
	first, err := client.Alloc(bg, reg.MachineID, "batch-1", reqs)
	if err != nil {
		t.Fatal(err)
	}
	if first.Replayed {
		t.Error("first submission marked replayed")
	}

	// Same batch ID again — the id "a" is live now, so re-execution
	// would fail; the dedup cache must answer instead.
	dup, err := client.Alloc(bg, reg.MachineID, "batch-1", reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Replayed {
		t.Error("duplicate not marked replayed")
	}
	a, _ := json.Marshal(first.Placements)
	b, _ := json.Marshal(dup.Placements)
	if !bytes.Equal(a, b) {
		t.Fatalf("duplicate returned different placements:\n first %s\n dup   %s", a, b)
	}

	// Across a crash: the dedup cache is rebuilt from the journal.
	srv2, client2, stop2 := newJournaledServer(t, dir, Options{})
	if _, err := srv2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer stop2()
	dup2, err := client2.Alloc(bg, reg.MachineID, "batch-1", reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !dup2.Replayed {
		t.Error("post-recovery duplicate not marked replayed")
	}
	c, _ := json.Marshal(dup2.Placements)
	if !bytes.Equal(a, c) {
		t.Fatalf("post-recovery duplicate differs:\n first %s\n dup   %s", a, c)
	}

	// Free batches carry the same contract.
	f1, err := client2.Free(bg, reg.MachineID, "free-1", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := client2.Free(bg, reg.MachineID, "free-1", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if !f2.Replayed {
		t.Error("duplicate free not marked replayed")
	}
	fa, _ := json.Marshal(f1.Results)
	fb, _ := json.Marshal(f2.Results)
	if !bytes.Equal(fa, fb) {
		t.Fatalf("duplicate free diverged: %s vs %s", fa, fb)
	}
}

// TestMalformedJournalRefusesStartup pins loud recovery failure end to
// end: corruption before the tail makes PrepareRecovery fail with a
// typed *JournalError, so the daemon refuses to start rather than
// serving a machine with a wrong history.
func TestMalformedJournalRefusesStartup(t *testing.T) {
	dir := t.TempDir()
	_, client, _ := newJournaledServer(t, dir, Options{})
	reg, err := client.Register(bg, MachineSpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := client.Alloc(bg, reg.MachineID, "", []AllocRequest{{ID: string(rune('a' + i)), ElemSize: 4, NumElem: 64}}); err != nil {
			t.Fatal(err)
		}
	}
	path := journalPath(dir, reg.MachineID)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the second record's frame.
	span := frameSpans(t, data)[2]
	data[(span[0]+span[1])/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := NewServer(Options{JournalDir: dir})
	defer srv2.Close()
	var jerr *JournalError
	if _, err := srv2.PrepareRecovery(); !errors.As(err, &jerr) {
		t.Fatalf("corrupt journal recovered with %v, want a *JournalError", err)
	}
	if jerr.Path != path {
		t.Errorf("error names %s, want %s", jerr.Path, path)
	}
}

// rewriteJournal replaces a journal's records with edit's result,
// framing each record as the journal writer does.
func rewriteJournal(t *testing.T, path string, edit func([]Record) []Record) {
	t.Helper()
	lg, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte(journalHeader(lg.machineID))
	for _, rec := range edit(lg.records) {
		if buf, err = appendFrame(buf, &rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// getMachine returns h's GET /v1/machines/{id} body.
func getMachine(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/machines/"+id, nil))
	body, _ := io.ReadAll(w.Result().Body)
	if w.Code != http.StatusOK {
		t.Fatalf("GET machine %s: %d %s", id, w.Code, body)
	}
	return body
}

// journalPastSnapshot registers a seed-7 machine on a journaled server
// in dir, drives it past its first snapshot record, stops the server,
// and returns the machine ID and the machine's GET body before the stop.
func journalPastSnapshot(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	srv, client, stop := newJournaledServer(t, dir, Options{})
	defer stop()
	reg, err := client.Register(bg, MachineSpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, client, reg.MachineID, NewStreamGen(7, 0), snapshotRounds, 16)
	return reg.MachineID, getMachine(t, srv, reg.MachineID)
}

// TestSnapshotMismatchFailsReplay pins the checkpoint cross-check: a
// snapshot record that disagrees with replayed history, or carries an
// empty snapshot, fails Replay loudly with a *JournalError naming that
// record's line, instead of serving a machine whose past is ambiguous.
func TestSnapshotMismatchFailsReplay(t *testing.T) {
	for _, tc := range []struct {
		name   string
		edit   func(*Record)
		reason string
	}{
		{"state_sum", func(r *Record) { r.Snapshot.StateSum = "ffffffffffffffff" }, "state sum ffffffffffffffff"},
		{"live_handles", func(r *Record) { r.Snapshot.LiveHandles++ }, "differs from the snapshot record"},
		{"no_payload", func(r *Record) { r.Snapshot = Snapshot{} }, "snapshot record (allocs 0, live handles 0, state sum )"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			id, _ := journalPastSnapshot(t, dir)
			path := journalPath(dir, id)
			line := 0
			rewriteJournal(t, path, func(recs []Record) []Record {
				for i := range recs {
					if recs[i].Kind == recSnapshot {
						tc.edit(&recs[i])
						line = i + 2 // the header is line 1
						break
					}
				}
				return recs
			})
			if line == 0 {
				t.Fatal("the journal holds no snapshot record")
			}

			srv2 := NewServer(Options{JournalDir: dir})
			defer srv2.Close()
			var jerr *JournalError
			if _, err := srv2.Recover(); !errors.As(err, &jerr) {
				t.Fatalf("snapshot mismatch recovered with %v, want a *JournalError", err)
			}
			if jerr.Path != path || jerr.Line != line {
				t.Errorf("error names %s:%d, want %s:%d", jerr.Path, jerr.Line, path, line)
			}
			if !strings.Contains(jerr.Reason, tc.reason) {
				t.Errorf("error reason %q does not say %q", jerr.Reason, tc.reason)
			}
		})
	}
}

// TestRecoveryIgnoresStaleSnapFile pins the upgrade path from daemons
// that kept snapshots in a second file: a journal with no snapshot
// records, and an old <id>.snap beside it that no longer matches it,
// recovers to the same GET /v1/machines/{id} bytes it served before;
// deregistration and RemoveJournalDir then delete such files.
func TestRecoveryIgnoresStaleSnapFile(t *testing.T) {
	dir := t.TempDir()
	id, before := journalPastSnapshot(t, dir)

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != journalExt {
			t.Errorf("journal directory holds %s; a machine's journal should be its only file", e.Name())
		}
	}

	// Rewrite the journal as a daemon without snapshot records wrote
	// it, and leave such a daemon's snapshot file beside it, at a seq
	// past the journal's end, which that daemon refused to start on.
	path := journalPath(dir, id)
	var ops int
	rewriteJournal(t, path, func(recs []Record) []Record {
		var out []Record
		for _, rec := range recs {
			if rec.Kind != recSnapshot {
				rec.Seq = uint64(len(out) + 1)
				out = append(out, rec)
			}
		}
		ops = len(out) - 1
		if len(out) == len(recs) {
			t.Fatal("the journal holds no snapshot record to strip")
		}
		return out
	})
	stale := fmt.Sprintf(`{"machine_id":%q,"seq":100000,"allocs":1,"frees":0,"alloc_errors":0,"live_handles":1,"batches":1,"state_sum":"ffffffffffffffff"}`, id)
	if err := os.WriteFile(filepath.Join(dir, id+".snap"), []byte(stale+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := NewServer(Options{JournalDir: dir})
	defer srv2.Close()
	stats, err := srv2.Recover()
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if stats.Records != ops || stats.Snapshots != 0 {
		t.Errorf("recovery stats %+v, want %d records and no snapshots", stats, ops)
	}
	if after := getMachine(t, srv2, id); !bytes.Equal(after, before) {
		t.Errorf("GET machine after recovery:\n %s\nwant\n %s", after, before)
	}

	// Deregistering the machine deletes its journal and the stale
	// snapshot file beside it.
	if !srv2.deregister(id) {
		t.Fatalf("deregister %s: machine not found", id)
	}
	for _, ext := range []string{journalExt, staleSnapExt} {
		if _, err := os.Stat(filepath.Join(dir, id+ext)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s%s survived deregistration (stat: %v)", id, ext, err)
		}
	}

	// Resetting the directory deletes journals and stale snapshot files
	// alike, and nothing else.
	other := filepath.Join(dir, "notes.txt")
	for _, name := range []string{"m000009" + journalExt, "m000009" + staleSnapExt, "m000010" + staleSnapExt, "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(stale+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := RemoveJournalDir(dir); err != nil {
		t.Fatal(err)
	}
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || filepath.Join(dir, entries[0].Name()) != other {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("after RemoveJournalDir the directory holds %v, want only notes.txt", names)
	}
}

// TestDrainFlipsReadyz pins the drain surface: Drain makes /readyz
// answer 503 while /healthz stays 200 and traffic still completes.
func TestDrainFlipsReadyz(t *testing.T) {
	srv, client := newTestServer(t)
	reg, err := client.Register(bg, MachineSpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !client.Ready(bg) {
		t.Fatal("fresh server not ready")
	}
	srv.Drain()
	if client.Ready(bg) {
		t.Error("draining server claims ready")
	}
	if !client.Healthy(bg) {
		t.Error("draining server must stay healthy (liveness)")
	}
	// In-flight work still completes during drain.
	if _, err := client.Alloc(bg, reg.MachineID, "", []AllocRequest{{ID: "a", ElemSize: 4, NumElem: 64}}); err != nil {
		t.Errorf("alloc during drain: %v", err)
	}
}

// TestRecoveredJournalKeepsAppending pins that the reopened journal is
// live: operations after recovery journal onto the same file and a
// second recovery replays them too.
func TestRecoveredJournalKeepsAppending(t *testing.T) {
	dir := t.TempDir()
	_, client1, _ := newJournaledServer(t, dir, Options{})
	reg, err := client1.Register(bg, MachineSpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client1.Alloc(bg, reg.MachineID, "b1", []AllocRequest{{ID: "a", ElemSize: 4, NumElem: 64}}); err != nil {
		t.Fatal(err)
	}

	srv2, client2, _ := newJournaledServer(t, dir, Options{})
	if _, err := srv2.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := client2.Alloc(bg, reg.MachineID, "b2", []AllocRequest{{ID: "b", ElemSize: 4, NumElem: 64}}); err != nil {
		t.Fatal(err)
	}
	// Give the worker a beat to journal the batch before the "crash".
	deadline := time.Now().Add(2 * time.Second)
	for {
		lg, err := readJournal(journalPath(dir, reg.MachineID))
		if err == nil && len(lg.records) >= 3 && !lg.torn {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never reached 3 records: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	srv3, client3, stop3 := newJournaledServer(t, dir, Options{})
	if _, err := srv3.Recover(); err != nil {
		t.Fatal(err)
	}
	defer stop3()
	info, err := client3.MachineInfo(bg, reg.MachineID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Allocs != 2 || info.LiveHandles != 2 {
		t.Errorf("after two recoveries: allocs=%d live=%d, want 2/2", info.Allocs, info.LiveHandles)
	}
}
