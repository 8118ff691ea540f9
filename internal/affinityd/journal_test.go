package affinityd

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"affinityalloc/internal/memsim"
)

// TestJournalLineBytes pins each framed line byte for byte to the
// format's definition — crc32 of json.Marshal's payload as eight hex
// digits, a space, the payload, a newline — so journals written by
// older daemons and by this one are interchangeable. The records cover
// every kind, HTML-escaped characters and a payload long enough to grow
// the frame buffer after a short one.
func TestJournalLineBytes(t *testing.T) {
	dir := t.TempDir()
	j, err := createJournal(dir, "m000001", false)
	if err != nil {
		t.Fatal(err)
	}
	many := make([]AllocRequest, 200)
	for i := range many {
		many[i] = AllocRequest{ID: fmt.Sprintf("a%06d", i), ElemSize: 8, NumElem: int64(i + 1)}
	}
	recs := []*Record{
		{Kind: recRegister, Spec: &MachineSpec{Seed: 7, Policy: "hybrid5"}},
		{Kind: recPool, Interleave: 4096},
		{Kind: recAlloc, Batch: "<b&1>", Allocs: many},
		{Kind: recFree, Batch: "b2", Frees: []string{"a000001", "a000002"}},
		{Kind: recSnapshot, Snapshot: &Snapshot{Allocs: 200, LiveHandles: 198, StateSum: "ed70aeea40dfa890"}},
	}
	want := journalMagic + " m000001\n"
	for _, r := range recs {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want += fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(journalPath(dir, "m000001"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("journal bytes differ from the framing definition:\n got %q\nwant %q", got, want)
	}
}

// TestStateSumPinned: snapshot records carry stateSum's digest, and a
// journal an older daemon wrote must still verify, so the digest of a
// fixed handle set is pinned to the value that daemon computed.
func TestStateSumPinned(t *testing.T) {
	handles := map[string]*handle{
		"a000001": {base: 0x100000000, bytes: 4096},
		"a000002": {base: memsim.PoolBase + 0x40, bytes: 64},
		"a000010": {base: 0xfedcba987654, bytes: 1 << 30},
		"b":       {base: 0, bytes: 0},
		"a0000ff": {base: 0x1234, bytes: 12345},
	}
	if got, want := stateSum(handles), "ed70aeea40dfa890"; got != want {
		t.Errorf("stateSum = %s, want %s", got, want)
	}
	if got, want := stateSum(map[string]*handle{}), "cbf29ce484222325"; got != want {
		t.Errorf("stateSum of no handles = %s, want %s", got, want)
	}
}

// TestJournalRoundTrip pins the framing: records appended through the
// write side read back identically through the read side, in order,
// with consecutive sequence numbers.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := createJournal(dir, "m000001", false)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*Record{
		{Kind: recRegister, Spec: &MachineSpec{Seed: 7, Policy: "hybrid5"}},
		{Kind: recPool, Interleave: 64},
		{Kind: recAlloc, Batch: "b1", Allocs: []AllocRequest{{ID: "a", ElemSize: 4, NumElem: 64}}},
		{Kind: recFree, Batch: "b2", Frees: []string{"a"}},
		{Kind: recSnapshot, Snapshot: &Snapshot{Allocs: 1, StateSum: "00deadbeef000000"}},
	}
	for _, r := range recs {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	lg, err := readJournal(journalPath(dir, "m000001"))
	if err != nil {
		t.Fatal(err)
	}
	if lg.torn {
		t.Error("clean journal reported torn")
	}
	if lg.machineID != "m000001" {
		t.Errorf("machine ID %q, want m000001", lg.machineID)
	}
	if len(lg.records) != len(recs) {
		t.Fatalf("read %d records, want %d", len(lg.records), len(recs))
	}
	for i, got := range lg.records {
		if got.Seq != uint64(i+1) {
			t.Errorf("record %d has seq %d, want %d", i, got.Seq, i+1)
		}
		if got.Kind != recs[i].Kind || got.Batch != recs[i].Batch {
			t.Errorf("record %d = %+v, want kind %q batch %q", i, got, recs[i].Kind, recs[i].Batch)
		}
	}
	if lg.records[2].Allocs[0].ID != "a" {
		t.Errorf("alloc payload lost: %+v", lg.records[2])
	}
	if got := lg.records[4].Snapshot; got == nil || *got != *recs[4].Snapshot {
		t.Errorf("snapshot payload %+v, want %+v", got, recs[4].Snapshot)
	}
}

// TestJournalTornTailTruncates pins the kill -9 contract: a final line
// cut short mid-write (no newline, or a complete-looking line whose CRC
// fails) is a torn tail — truncated and reported, never an error — and
// reopening resumes appending on the record boundary.
func TestJournalTornTailTruncates(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail string
	}{
		{"no_newline", `deadbeef {"seq":3,"kind":"pool","interl`},
		{"bad_crc_last_line", `deadbeef {"seq":3,"kind":"pool","interleave":64}` + "\n"},
		{"snapshot_no_newline", `deadbeef {"seq":3,"kind":"snapshot","snapshot":{"allocs":0,"live_han`},
		{"snapshot_bad_crc", `deadbeef {"seq":3,"kind":"snapshot","snapshot":{"allocs":0,"live_handles":0,"state_sum":"cbf29ce484222325"}}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, err := createJournal(dir, "m000001", false)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.append(&Record{Kind: recRegister, Spec: &MachineSpec{Seed: 1}}); err != nil {
				t.Fatal(err)
			}
			if err := j.append(&Record{Kind: recPool, Interleave: 64}); err != nil {
				t.Fatal(err)
			}
			j.close()
			path := journalPath(dir, "m000001")
			clean, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(clean, tc.tail...), 0o644); err != nil {
				t.Fatal(err)
			}

			lg, err := readJournal(path)
			if err != nil {
				t.Fatalf("torn tail must not fail the read: %v", err)
			}
			if !lg.torn {
				t.Fatal("torn tail not reported")
			}
			if len(lg.records) != 2 {
				t.Fatalf("read %d records, want the 2 committed ones", len(lg.records))
			}
			if lg.tornSize != int64(len(clean)) {
				t.Errorf("tornSize %d, want %d (the clean prefix)", lg.tornSize, len(clean))
			}

			// Reopen truncates and appending resumes at seq 3.
			j2, err := reopenJournal(path, 2, lg.tornSize, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := j2.append(&Record{Kind: recPool, Interleave: 128}); err != nil {
				t.Fatal(err)
			}
			j2.close()
			lg2, err := readJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if lg2.torn || len(lg2.records) != 3 || lg2.records[2].Seq != 3 {
				t.Errorf("after reopen: torn=%v records=%d", lg2.torn, len(lg2.records))
			}
		})
	}
}

// TestJournalCorruptionFailsLoudly pins the loud-failure contract: a
// malformed record anywhere before the tail is corruption, reported as
// a typed *JournalError naming the file and line — never silently
// skipped.
func TestJournalCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	j, err := createJournal(dir, "m000001", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Record{
		{Kind: recRegister, Spec: &MachineSpec{Seed: 1}},
		{Kind: recPool, Interleave: 64},
		{Kind: recPool, Interleave: 128},
	} {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.close()
	path := journalPath(dir, "m000001")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the middle record's payload.
	lines := strings.SplitAfter(string(data), "\n")
	mid := []byte(lines[2])
	mid[len(mid)/2] ^= 0x01
	lines[2] = string(mid)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = readJournal(path)
	var jerr *JournalError
	if !errors.As(err, &jerr) {
		t.Fatalf("corrupt middle record returned %v, want a *JournalError", err)
	}
	if jerr.Path != path || jerr.Line != 3 {
		t.Errorf("error names %s:%d, want %s:3", jerr.Path, jerr.Line, path)
	}

	// Sequence gaps are corruption too: drop the middle record entirely.
	if err := os.WriteFile(path, []byte(lines[0]+lines[1]+lines[3]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readJournal(path); !errors.As(err, &jerr) {
		t.Fatalf("sequence gap returned %v, want a *JournalError", err)
	}
}
