package affinityd

// The write-ahead journal is what makes affinityd crash-safe: every
// state-changing operation a machine commits — its registration, pool
// opens, allocation batches, free batches — is appended to a
// per-machine journal file *before* it executes. Placements are a
// deterministic function of the machine spec and the ordered operation
// stream (the service-vs-library differential gate pins exactly this),
// so replaying the journal against a freshly built machine reconstructs
// byte-identical placement state: the same bases, banks, pool free
// lists, RNG state, counters, and idempotency dedup cache.
//
// Record framing is one line per record:
//
//	<crc32-ieee hex8> <canonical JSON>\n
//
// appended with a single unbuffered write syscall, so a kill -9 loses
// at most the record being written, never a committed one. A torn tail
// (final line without its newline, or a final line whose CRC/JSON no
// longer checks out — the signature of a write cut short) is truncated
// on recovery and reported; any malformed record *before* the tail is
// corruption, and recovery fails loudly with a typed *JournalError
// rather than silently serving a machine whose history is wrong.
//
// Every snapshotEvery operation records the worker also appends a
// snapshot record, framed and numbered like the rest: the alloc count,
// the live-handle count and a digest of the live placement state. It is
// a consistency checkpoint, not replay truncation: allocator state is
// history-dependent (seeded RNG, pool free lists), so byte-identical
// reconstruction requires replaying the full record stream. What it
// buys is a cross-check — when replay reaches a snapshot record the
// reconstructed state must match it, or recovery fails loudly. Because
// it lives in the journal, the one framing, torn-tail rule and sequence
// check cover it too.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// journalMagic is the first line of every journal file, carrying the
// format version and the machine ID the file belongs to.
const journalMagic = "affinityd-journal/v1"

// journalExt is the journal file suffix under the journal directory.
const journalExt = ".waj"

// staleSnapExt is the suffix of the snapshot files older daemons kept
// beside their journals. Recovery ignores them; deregistration and
// RemoveJournalDir delete them with the journal.
const staleSnapExt = ".snap"

// Journal record kinds, in the order a machine's life emits them.
const (
	recRegister = "register"
	recPool     = "pool"
	recAlloc    = "alloc"
	recFree     = "free"
	recSnapshot = "snapshot"
)

// snapshotEvery is how many operation records (pool, alloc, free) the
// worker commits between snapshot records.
const snapshotEvery = 256

// Record is one committed operation in a machine's write-ahead journal.
// Exactly one kind-specific payload is set.
type Record struct {
	// Seq numbers records 1..N consecutively within one journal; replay
	// refuses gaps and reordering.
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`
	// Batch is the idempotency key of an alloc/free batch; replay
	// rebuilds the dedup cache from it so a client retry that lands
	// after a crash+restart still gets the original placements.
	Batch string `json:"batch,omitempty"`

	Spec       *MachineSpec   `json:"spec,omitempty"`       // recRegister
	Interleave int            `json:"interleave,omitempty"` // recPool
	Allocs     []AllocRequest `json:"allocs,omitempty"`     // recAlloc
	Frees      []string       `json:"frees,omitempty"`      // recFree
	Snapshot   *Snapshot      `json:"snapshot,omitempty"`   // recSnapshot
}

// JournalError reports a journal that cannot be recovered from: a
// malformed record before the tail, a sequence gap, a header mismatch,
// or a snapshot record that disagrees with replayed state. It is
// deliberately loud — serving a machine whose history is corrupt would
// corrupt placements silently.
type JournalError struct {
	Path   string
	Line   int // 1-based line in the file; 0 when not line-specific
	Reason string
}

func (e *JournalError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("affinityd: journal %s:%d: %s", e.Path, e.Line, e.Reason)
	}
	return fmt.Sprintf("affinityd: journal %s: %s", e.Path, e.Reason)
}

// journal is the append side, owned by the machine worker goroutine
// (or, during replay, by the recovery goroutine) — never shared.
type journal struct {
	path string
	f    *os.File
	seq  uint64
	sync bool // fsync after every append (power-loss durability)
	// buf holds the line being framed; enc encodes into it. Both are
	// reused by every append.
	buf bytes.Buffer
	enc *json.Encoder
}

// journalPath names a machine's journal under dir.
func journalPath(dir, machineID string) string {
	return filepath.Join(dir, machineID+journalExt)
}

// createJournal starts a fresh journal for machineID, writing the
// header line. It fails if the file already exists — machine IDs are
// never reused, so an existing file means a registry/journal mismatch.
func createJournal(dir, machineID string, sync bool) (*journal, error) {
	path := journalPath(dir, machineID)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("affinityd: create journal: %w", err)
	}
	j := &journal{path: path, f: f, sync: sync}
	if _, err := f.WriteString(journalMagic + " " + machineID + "\n"); err != nil {
		f.Close()
		return nil, fmt.Errorf("affinityd: write journal header: %w", err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// reopenJournal opens an existing journal for appending after replay
// verified it, truncating a torn tail to tornSize first so the next
// append starts on a record boundary.
func reopenJournal(path string, lastSeq uint64, tornSize int64, sync bool) (*journal, error) {
	if tornSize >= 0 {
		if err := os.Truncate(path, tornSize); err != nil {
			return nil, fmt.Errorf("affinityd: truncate torn journal tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("affinityd: reopen journal: %w", err)
	}
	return &journal{path: path, f: f, seq: lastSeq, sync: sync}, nil
}

const hexDigits = "0123456789abcdef"

// append commits one record: assigns the next sequence number,
// marshals, and writes the framed line in a single syscall. The record
// is committed once append returns — the caller executes it only after.
func (j *journal) append(rec *Record) error {
	rec.Seq = j.seq + 1
	if j.enc == nil {
		j.enc = json.NewEncoder(&j.buf)
	}
	// Reserve the crc field, encode the payload after it (the encoder
	// ends it with the line's newline), then fill the crc in place.
	j.buf.Reset()
	j.buf.WriteString("00000000 ")
	if err := j.enc.Encode(rec); err != nil {
		return fmt.Errorf("affinityd: marshal journal record: %w", err)
	}
	line := j.buf.Bytes()
	crc := crc32.ChecksumIEEE(line[9 : len(line)-1])
	for i := 7; i >= 0; i-- {
		line[i] = hexDigits[crc&0xf]
		crc >>= 4
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("affinityd: append journal record: %w", err)
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("affinityd: sync journal: %w", err)
		}
	}
	j.seq = rec.Seq
	return nil
}

func (j *journal) close() error {
	if j == nil || j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// journalLog is the read side: the verified contents of one journal
// file, ready to replay.
type journalLog struct {
	path      string
	machineID string
	records   []Record
	// tornSize is the byte offset the file must be truncated to before
	// appending resumes; -1 when the file ends cleanly.
	tornSize int64
	torn     bool
}

// readJournal parses and verifies a journal file. A torn tail is
// tolerated and reported via the returned log; everything else that is
// wrong fails with a typed *JournalError.
func readJournal(path string) (*journalLog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("affinityd: read journal: %w", err)
	}
	lg := &journalLog{path: path, tornSize: -1}

	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, &JournalError{Path: path, Line: 1, Reason: "missing header line"}
	}
	header := string(data[:nl])
	magic, machineID, ok := strings.Cut(header, " ")
	if !ok || magic != journalMagic || machineID == "" {
		return nil, &JournalError{Path: path, Line: 1,
			Reason: fmt.Sprintf("bad header %q (want %q <machine-id>)", header, journalMagic)}
	}
	lg.machineID = machineID

	offset := int64(nl + 1)
	rest := data[nl+1:]
	lineNo := 1
	for len(rest) > 0 {
		lineNo++
		end := bytes.IndexByte(rest, '\n')
		if end < 0 {
			// No terminating newline: the write was cut short. This can
			// only legally be the final record — and here it is, by
			// construction of the scan.
			lg.torn = true
			lg.tornSize = offset
			break
		}
		line := rest[:end]
		rec, perr := parseRecord(line)
		if perr != nil {
			if len(rest) == end+1 {
				// Complete-looking final line that fails its CRC or JSON:
				// still the signature of an interrupted append (the frame
				// bytes landed, the payload didn't). Truncate it away.
				lg.torn = true
				lg.tornSize = offset
				break
			}
			return nil, &JournalError{Path: path, Line: lineNo, Reason: perr.Error()}
		}
		if want := uint64(len(lg.records) + 1); rec.Seq != want {
			return nil, &JournalError{Path: path, Line: lineNo,
				Reason: fmt.Sprintf("sequence gap: record %d, want %d", rec.Seq, want)}
		}
		lg.records = append(lg.records, rec)
		offset += int64(end + 1)
		rest = rest[end+1:]
	}
	if len(lg.records) == 0 || lg.records[0].Kind != recRegister || lg.records[0].Spec == nil {
		return nil, &JournalError{Path: path, Line: 2,
			Reason: "journal does not begin with a register record"}
	}
	return lg, nil
}

// parseRecord decodes one framed line: crc32 hex, space, JSON payload.
func parseRecord(line []byte) (Record, error) {
	var rec Record
	if len(line) < 10 || line[8] != ' ' {
		return rec, fmt.Errorf("short or unframed record (%d bytes)", len(line))
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return rec, fmt.Errorf("bad crc field %q", line[:8])
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != uint32(want) {
		return rec, fmt.Errorf("crc mismatch: computed %08x, recorded %08x", got, want)
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return rec, fmt.Errorf("record does not parse: %v", err)
	}
	switch rec.Kind {
	case recRegister, recPool, recAlloc, recFree, recSnapshot:
	default:
		return rec, fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return rec, nil
}

// Snapshot is the payload of a snapshot record: the alloc count, the
// live-handle count and a hash of the live placement state after the
// record before it. Replay checks all three when it reaches the record.
type Snapshot struct {
	Allocs      uint64 `json:"allocs"`
	LiveHandles int    `json:"live_handles"`
	StateSum    string `json:"state_sum"`
}

// stateSum hashes the live placement state — sorted (id, base, bytes)
// triples — into the checksum snapshots carry. FNV-64a is plenty: this
// guards against divergent replay, not adversaries.
func stateSum(handles map[string]*handle) string {
	ids := make([]string, 0, len(handles))
	for id := range handles {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := fnv.New64a()
	var line []byte
	for _, id := range ids {
		hd := handles[id]
		line = append(line[:0], id...)
		line = append(line, '=')
		line = strconv.AppendUint(line, uint64(hd.base), 16)
		line = append(line, ':')
		line = strconv.AppendInt(line, hd.bytes, 16)
		line = append(line, '\n')
		h.Write(line)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
