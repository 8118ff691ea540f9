package affinityd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"affinityalloc/internal/memsim"
	"affinityalloc/internal/trace"
)

// frameDef frames payload by the format's definition, independently of
// appendFrame: the payload length as u32 LE, crc32c of those four
// bytes, the payload, and crc32c of the payload.
func frameDef(payload []byte) []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, trace.Checksum(out))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, trace.Checksum(payload))
}

// frameSpans returns the [start, end) byte span of every whole frame
// after a journal's header line, reading only the length field.
func frameSpans(t *testing.T, data []byte) [][2]int {
	t.Helper()
	off := bytes.IndexByte(data, '\n') + 1
	var spans [][2]int
	for off+frameHeaderLen <= len(data) {
		end := off + frameHeaderLen + int(binary.LittleEndian.Uint32(data[off:])) + frameTrailerLen
		if end > len(data) {
			break
		}
		spans = append(spans, [2]int{off, end})
		off = end
	}
	return spans
}

// writeJournal writes recs as machineID's journal under dir through the
// append path and returns the file's path and bytes.
func writeJournal(t *testing.T, dir, machineID string, recs []*Record) (string, []byte) {
	t.Helper()
	j, err := createJournal(dir, machineID, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(j.path)
	if err != nil {
		t.Fatal(err)
	}
	return j.path, data
}

// TestJournalLineBytes pins each frame byte for byte to the format's
// definition: the header line, then per record the payload spelled out
// field by field (kind, seq, batch, the kind's fields; zigzag varints
// for integers, uvarint-prefixed strings and counts) inside frameDef's
// framing. There is one frame per record kind, an alloc record that sets
// every request field, and a long alloc record that grows the frame
// buffer after the short ones.
func TestJournalLineBytes(t *testing.T) {
	many := make([]AllocRequest, 200)
	var manyPayload []byte
	for i := range many {
		many[i] = AllocRequest{ID: fmt.Sprintf("a%06d", i), ElemSize: 8, NumElem: int64(i + 1)}
		manyPayload = append(manyPayload, "\x07"+many[i].ID+"\x00\x00\x10"...)
		manyPayload = binary.AppendUvarint(manyPayload, uint64(2*(i+1)))
		manyPayload = append(manyPayload, "\x00\x00\x00\x00\x00\x00\x00\x00"...)
	}
	recs := []*Record{
		{Kind: recRegister, Spec: MachineSpec{MeshW: 4, MeshH: 4, Seed: -7, Policy: "hybrid5", Faults: "dead-banks=2"}},
		{Kind: recPool, Interleave: 4096},
		{Kind: recAlloc, Batch: "<b&1>", Allocs: []AllocRequest{{
			ID: "n1", Kind: KindNear, Mode: "Aff-Alloc", ElemSize: 4, NumElem: 16,
			AlignTo: "a", AlignP: 1, AlignQ: 2, AlignX: -3, Partition: true, Size: 64,
			Affinity: []ElemRef{{Ref: "a", Elem: -1}}, BankProbe: []int64{0, 300},
		}}},
		{Kind: recAlloc, Batch: "b", Allocs: many},
		{Kind: recFree, Batch: "b2", Frees: []string{"a000001", "a000002"}},
		{Kind: recSnapshot, Snapshot: Snapshot{Allocs: 200, LiveHandles: 198, StateSum: "ed70aeea40dfa890"}},
	}
	payloads := []string{
		"\x01\x01\x00" + "\x08\x08\x0d" + "\x07hybrid5" + "\x0cdead-banks=2",
		"\x02\x02\x00" + "\x80\x40",
		"\x03\x03\x05<b&1>" + "\x01" +
			"\x02n1" + "\x04near" + "\x09Aff-Alloc" + "\x08\x20" + "\x01a" + "\x02\x04\x05" + "\x01" + "\x80\x01" +
			"\x01" + "\x01a\x01" + "\x02" + "\x00\xd8\x04",
		"\x03\x04\x01b" + "\xc8\x01" + string(manyPayload),
		"\x04\x05\x02b2" + "\x02" + "\x07a000001" + "\x07a000002",
		"\x05\x06\x00" + "\xc8\x01" + "\x8c\x03" + "\x10ed70aeea40dfa890",
	}
	want := []byte("affinityd-journal/v2 m000001\n")
	for _, p := range payloads {
		want = append(want, frameDef([]byte(p))...)
	}
	_, got := writeJournal(t, t.TempDir(), "m000001", recs)
	if !bytes.Equal(got, want) {
		t.Errorf("journal bytes differ from the framing definition:\n got %q\nwant %q", got, want)
	}
}

// TestStateSumPinned: snapshot records carry stateSum's digest, and a
// journal written today must verify under later builds, so the digest
// of a fixed handle set is pinned.
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

// TestJournalRoundTrip pins the codec: records appended through the
// write side read back identically through the read side, in order,
// with consecutive sequence numbers.
func TestJournalRoundTrip(t *testing.T) {
	recs := []*Record{
		{Kind: recRegister, Spec: MachineSpec{Seed: 7, Policy: "hybrid5"}},
		{Kind: recPool, Interleave: 64},
		{Kind: recAlloc, Batch: "b1", Allocs: []AllocRequest{
			{ID: "a", ElemSize: 4, NumElem: 64},
			{ID: "x", Kind: "odd-kind", Mode: "incore", NumElem: -1, BankProbe: []int64{-5}},
		}},
		{Kind: recFree, Batch: "b2", Frees: []string{"a", ""}},
		{Kind: recSnapshot, Snapshot: Snapshot{Allocs: 1, StateSum: "00deadbeef000000"}},
	}
	path, _ := writeJournal(t, t.TempDir(), "m000001", recs)
	lg, err := readJournal(path)
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
	for i := range lg.records {
		if got := lg.records[i]; got.Seq != uint64(i+1) || !reflect.DeepEqual(got, *recs[i]) {
			t.Errorf("record %d = %+v, want %+v", i, got, *recs[i])
		}
	}
}

// TestJournalTornTailTruncates pins the kill -9 contract. A final frame
// cut short at any byte, or a complete-looking final frame whose payload
// fails its crc, is a torn tail: recovery drops that record, counts one
// torn tail and truncates the file to the frame's start, and appending
// resumes on the record boundary. Every cut is tried, once where the
// final record is an alloc record and once where it is a snapshot record.
func TestJournalTornTailTruncates(t *testing.T) {
	alloc := &Record{Kind: recAlloc, Batch: "b1", Allocs: []AllocRequest{{ID: "a", ElemSize: 4, NumElem: 64}}}
	// A machine with a pool and nothing placed: zero allocs and handles,
	// and the digest of the empty handle set.
	snap := &Record{Kind: recSnapshot, Snapshot: Snapshot{StateSum: "cbf29ce484222325"}}
	for _, tc := range []struct {
		name    string
		last    *Record
		records int // operation records replayed when the last one is whole
		cut     bool
	}{
		{"cut", alloc, 2, true},
		{"bad_crc_last_line", alloc, 2, false},
		{"snapshot_cut", snap, 1, true},
		{"snapshot_bad_crc", snap, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path, whole := writeJournal(t, dir, "m000001", []*Record{
				{Kind: recRegister, Spec: MachineSpec{Seed: 1}},
				{Kind: recPool, Interleave: 64},
				tc.last,
			})
			spans := frameSpans(t, whole)
			start := spans[2][0]

			// The whole journal recovers every record.
			st := recoverDir(t, dir)
			if st.TornTails != 0 || st.Records != tc.records {
				t.Fatalf("whole journal: %+v, want %d records and no torn tail", st, tc.records)
			}

			var tails [][]byte
			if tc.cut {
				for n := start + 1; n < len(whole); n++ {
					tails = append(tails, whole[:n])
				}
			} else {
				bad := bytes.Clone(whole)
				bad[len(bad)-1] ^= 0x01
				tails = append(tails, bad)
			}
			for _, data := range tails {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				lg, err := readJournal(path)
				if err != nil {
					t.Fatalf("%d bytes: a torn tail must not fail the read: %v", len(data), err)
				}
				if !lg.torn || len(lg.records) != 2 || lg.tornSize != int64(start) {
					t.Fatalf("%d bytes: torn=%v records=%d tornSize=%d, want torn, 2 records, tornSize %d",
						len(data), lg.torn, len(lg.records), lg.tornSize, start)
				}
				st := recoverDir(t, dir)
				if st.TornTails != 1 || st.Records != 1 || st.Snapshots != 0 {
					t.Fatalf("%d bytes: recovery %+v, want 1 record, 1 torn tail, no snapshot", len(data), st)
				}
				if fi, err := os.Stat(path); err != nil || fi.Size() != int64(start) {
					t.Fatalf("%d bytes: after recovery the journal is %v bytes (%v), want %d", len(data), fi.Size(), err, start)
				}
			}

			// Reopen truncates and appending resumes at seq 3.
			if err := os.WriteFile(path, tails[0], 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := reopenJournal(path, 2, int64(start), false)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.append(&Record{Kind: recPool, Interleave: 128}); err != nil {
				t.Fatal(err)
			}
			j.close()
			lg, err := readJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if lg.torn || len(lg.records) != 3 || lg.records[2].Seq != 3 {
				t.Errorf("after reopen: torn=%v records=%d", lg.torn, len(lg.records))
			}
		})
	}
}

// recoverDir recovers the journals under dir on a fresh server, closes
// it, and returns the recovery's counts.
func recoverDir(t *testing.T, dir string) RecoveryStats {
	t.Helper()
	srv := NewServer(Options{JournalDir: dir})
	defer srv.Close()
	st, err := srv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestJournalCorruptionFailsLoudly pins the loud-failure contract: a
// malformed record anywhere before the tail is corruption, reported as
// a typed *JournalError naming the file and the record's line — never
// silently skipped or truncated. Every byte of a middle frame is
// flipped in turn, header, payload and crc alike.
func TestJournalCorruptionFailsLoudly(t *testing.T) {
	path, data := writeJournal(t, t.TempDir(), "m000001", []*Record{
		{Kind: recRegister, Spec: MachineSpec{Seed: 1}},
		{Kind: recAlloc, Batch: "b1", Allocs: []AllocRequest{{ID: "a", ElemSize: 4, NumElem: 64}}},
		{Kind: recPool, Interleave: 128},
	})
	spans := frameSpans(t, data)
	if len(spans) != 3 {
		t.Fatalf("journal holds %d frames, want 3", len(spans))
	}
	expectLine := func(what string, bad []byte, line int) {
		t.Helper()
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readJournal(path)
		var jerr *JournalError
		if !errors.As(err, &jerr) {
			t.Fatalf("%s: read returned %v, want a *JournalError", what, err)
		}
		if jerr.Path != path || jerr.Line != line {
			t.Errorf("%s: error names %s:%d, want %s:%d", what, jerr.Path, jerr.Line, path, line)
		}
	}
	for i := spans[1][0]; i < spans[1][1]; i++ {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			bad := bytes.Clone(data)
			bad[i] ^= mask
			expectLine(fmt.Sprintf("byte %d ^ %#x", i-spans[1][0], mask), bad, 3)
		}
	}

	// Sequence gaps are corruption too: drop the middle record entirely.
	gap := append(bytes.Clone(data[:spans[1][0]]), data[spans[2][0]:]...)
	expectLine("sequence gap", gap, 3)

	// A final frame whose crcs check but whose payload is not the
	// encoder's canonical form was written whole; it is corruption, not
	// a torn tail.
	pool := appendRecord(nil, &Record{Seq: 3, Kind: recPool, Interleave: 128})
	for what, payload := range map[string][]byte{
		"trailing payload byte": append(bytes.Clone(pool), 0),
		"padded seq varint":     append([]byte{pool[0], 0x83, 0x00}, pool[2:]...),
		"unknown kind":          append([]byte{9}, pool[1:]...),
	} {
		expectLine(what, append(bytes.Clone(data[:spans[2][0]]), frameDef(payload)...), 4)
	}
}

// TestJournalAppendAllocatesNothing pins the frame-buffer reuse: once
// the journal's buffer has grown to an alloc record's frame, appending
// that record again allocates nothing.
func TestJournalAppendAllocatesNothing(t *testing.T) {
	j, err := createJournal(t.TempDir(), "m000001", false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	rec := &Record{Kind: recAlloc, Batch: "b1", Allocs: []AllocRequest{
		{ID: "a", ElemSize: 4, NumElem: 64, AlignP: 1, AlignQ: 2, Partition: true},
		{ID: "n", Kind: KindNear, Size: 64, Affinity: []ElemRef{{Ref: "a", Elem: 2}}, BankProbe: []int64{1, -3}},
	}}
	if err := j.append(rec); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("journal.append of an alloc record allocates %v times a call, want 0", n)
	}
}

// TestReaderRefusesNonCanonical runs each form the shared afftrace/v1
// reader refuses through both of its users, trace.Decode and
// parseJournal. Every case places its field bytes in a frame that is
// otherwise valid for each format, and the ok rows place canonical
// bytes there, so a refusal is the field's doing.
func TestReaderRefusesNonCanonical(t *testing.T) {
	// The field kinds a case can fill, each as a payload prefix and
	// suffix around the field, for a trace event frame and for a journal
	// record (seq 2, after a register record).
	type slot struct{ pre, post []byte }
	allocReq := func(flag []byte) []byte { // ID, kind, mode, elem size, count, align to, p, q, x; flag; size, two counts
		return append(append([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0}, flag...), 0, 0, 0)
	}
	traceSlots := map[string]slot{
		// open_pool event, tenant 0: the interleave, an int field.
		"int": {[]byte{2, 1, 0}, nil},
		// access event, tenant 0, ref 0, gran 0, one touch of chunk 0:
		// its read count, a 32-bit field, then its write count.
		"wide": {[]byte{2, 4, 0, 0, 0, 1, 0}, []byte{0}},
		// access event, tenant 0, ref 0, gran 0: the touch count.
		"count": {[]byte{2, 4, 0, 0, 0}, nil},
		// affine alloc event, tenant 0, zero fields and no error: the
		// partition flag.
		"flag": {[]byte{2, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0}},
	}
	journalSlots := map[string]slot{
		// pool record: the interleave.
		"int":  {[]byte{2, 2, 0}, nil},
		"wide": {[]byte{2, 2, 0}, nil},
		// free record: the ID count.
		"count": {[]byte{4, 2, 0}, nil},
		// alloc record with one request: its partition flag.
		"flag": {[]byte{3, 2, 0, 1}, nil},
	}
	for _, tc := range []struct {
		name, slot     string
		trace, journal []byte // the field's bytes in each format
		ok             bool
	}{
		{"ok int", "int", []byte{0x40}, []byte{0x40}, true},
		{"ok count", "count", []byte{0}, []byte{0}, true},
		{"ok flag", "flag", []byte{1}, []byte{1}, true},
		{"ok wide", "wide", []byte{0xff, 0xff, 0xff, 0xff, 0x0f}, append(bytes.Repeat([]byte{0xff}, 9), 0x01), true},
		{"padded varint", "int", []byte{0xc0, 0x00}, []byte{0xc0, 0x00}, false},
		{"overlong varint", "int", append(bytes.Repeat([]byte{0x80}, 10), 1), append(bytes.Repeat([]byte{0x80}, 10), 1), false},
		{"count past payload", "count", []byte{5}, []byte{5}, false},
		{"flag byte of 2", "flag", []byte{2}, []byte{2}, false},
		// A trace count holds 32 bits; a journal int is a zigzag varint,
		// which overflows past 64 bits.
		{"int overflow", "wide", []byte{0x80, 0x80, 0x80, 0x80, 0x10},
			append(bytes.Repeat([]byte{0xff}, 9), 0x02), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := traceSlots[tc.slot]
			ev := append(append(bytes.Clone(ts.pre), tc.trace...), ts.post...)
			tr := trace.Encode(&trace.Trace{Scenarios: []*trace.Scenario{{}}})
			tr = binary.AppendUvarint(tr, uint64(len(ev)))
			tr = append(tr, ev...)
			tr = binary.LittleEndian.AppendUint32(tr, trace.Checksum(ev))
			if _, err := trace.Decode(tr); (err == nil) != tc.ok {
				t.Errorf("trace.Decode: err = %v, want ok=%v", err, tc.ok)
			}

			js := journalSlots[tc.slot]
			field := tc.journal
			if tc.slot == "flag" {
				field = allocReq(field)
			}
			rec := append(append(bytes.Clone(js.pre), field...), js.post...)
			data := []byte(journalHeader("m000001"))
			data, _ = appendFrame(data, &Record{Seq: 1, Kind: recRegister})
			data = append(data, frameDef(rec)...)
			_, err := parseJournal("m000001.waj", data)
			if tc.ok {
				if err != nil {
					t.Errorf("parseJournal: %v, want ok", err)
				}
				return
			}
			var jerr *JournalError
			if !errors.As(err, &jerr) || jerr.Line != 3 {
				t.Errorf("parseJournal: err = %v, want a *JournalError at line 3", err)
			}
		})
	}
}

// TestJournalRefusesV1 pins the upgrade rule: a journal in the
// line-framed JSON format older daemons wrote is refused with a typed
// *JournalError that names its version and the -journal-reset escape
// hatch, so recovery refuses startup instead of guessing.
func TestJournalRefusesV1(t *testing.T) {
	dir := t.TempDir()
	path := journalPath(dir, "m000001")
	v1 := "affinityd-journal/v1 m000001\n" +
		`6b0a4c6f {"seq":1,"kind":"register","spec":{"seed":1}}` + "\n"
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{JournalDir: dir})
	defer srv.Close()
	_, err := srv.PrepareRecovery()
	var jerr *JournalError
	if !errors.As(err, &jerr) {
		t.Fatalf("v1 journal recovered with %v, want a *JournalError", err)
	}
	if jerr.Path != path || jerr.Line != 1 ||
		!strings.Contains(jerr.Reason, "affinityd-journal/v1") || !strings.Contains(jerr.Reason, "-journal-reset") {
		t.Errorf("v1 refusal %v does not name %s:1, the version and -journal-reset", jerr, path)
	}
}

// FuzzJournalRead feeds arbitrary bytes to parseJournal after a valid v2
// header, both raw and framed as one record with valid checks (so the
// payload decoder sees them too). Reading must not panic and must give
// either verified records or a *JournalError; verified records must
// re-encode to exactly the bytes they were read from.
func FuzzJournalRead(f *testing.F) {
	seed := appendRecord(nil, &Record{Seq: 1, Kind: recRegister, Spec: MachineSpec{Seed: 3, Policy: "minhop"}})
	f.Add(seed)
	f.Add(frameDef(seed))
	var long []byte
	for i, r := range []*Record{
		{Kind: recRegister, Spec: MachineSpec{MeshW: 4, MeshH: 4}},
		{Kind: recPool, Interleave: 4096},
		{Kind: recAlloc, Batch: "b", Allocs: []AllocRequest{{ID: "n", Kind: KindNear, Size: 64, Affinity: []ElemRef{{Ref: "a", Elem: 2}}, BankProbe: []int64{1}}}},
		{Kind: recFree, Batch: "c", Frees: []string{"n"}},
		{Kind: recSnapshot, Snapshot: Snapshot{Allocs: 1, StateSum: "x"}},
	} {
		r.Seq = uint64(i + 1)
		long, _ = appendFrame(long, r)
	}
	f.Add(long)
	f.Add(long[:len(long)-3])
	header := []byte(journalHeader("m000001"))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, tail := range [][]byte{body, frameDef(body)} {
			data := append(bytes.Clone(header), tail...)
			lg, err := parseJournal("m000001.waj", data)
			if err != nil {
				var jerr *JournalError
				if !errors.As(err, &jerr) {
					t.Fatalf("read failed with %T %v, want a *JournalError", err, err)
				}
				continue
			}
			end := len(data)
			if lg.torn {
				end = int(lg.tornSize)
			}
			re := append([]byte(nil), header...)
			for i := range lg.records {
				if re, err = appendFrame(re, &lg.records[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(re, data[:end]) {
				t.Fatalf("records re-encode to\n %q\nread from\n %q", re, data[:end])
			}
		}
	})
}
