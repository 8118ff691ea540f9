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
// A journal is one header line, then one binary frame per record:
//
//	affinityd-journal/v2 <machine-id>\n
//	len u32 LE | crc32c(len) u32 LE | payload (len bytes) | crc32c(payload) u32 LE
//	...
//
// Each frame is appended with a single unbuffered write syscall, so a
// kill -9 loses at most the record being written, never a committed
// one. The header's own check means a corrupted length is caught where
// it lies: it can never make a middle frame look as though it ran past
// the end of the file. A torn tail (a final frame cut short, or a final
// frame whose payload fails its crc — the signature of a write cut
// short) is truncated on recovery and reported; any bad frame *before*
// the tail, any header that fails its check, and any payload that
// checks but does not decode are corruption, and recovery fails loudly
// with a typed *JournalError rather than silently serving a machine
// whose history is wrong. Journals of the line-framed JSON format
// (affinityd-journal/v1) are refused by name.
//
// The payload follows afftrace/v1's conventions (internal/trace): the
// kind byte, the seq, the batch key, then the kind's fields in a fixed
// order — uvarints for counts, zigzag varints for integers a request
// may carry negative, length-prefixed strings. The decoder accepts only
// the encoder's canonical form and bounds every count by the bytes left,
// so no allocation is sized from unchecked input.
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
	"encoding/binary"
	"errors"
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
const journalMagic = "affinityd-journal/v2"

// journalMagicV1 heads the line-framed JSON journals older daemons
// wrote. readJournal refuses them by name.
const journalMagicV1 = "affinityd-journal/v1"

// journalExt is the journal file suffix under the journal directory.
const journalExt = ".waj"

// staleSnapExt is the suffix of the snapshot files older daemons kept
// beside their journals. Recovery ignores them; deregistration and
// RemoveJournalDir delete them with the journal.
const staleSnapExt = ".snap"

// recKind is a journal record's kind, the first byte of its payload.
type recKind byte

// Journal record kinds, in the order a machine's life emits them.
const (
	recRegister recKind = iota + 1
	recPool
	recAlloc
	recFree
	recSnapshot
)

// snapshotEvery is how many operation records (pool, alloc, free) the
// worker commits between snapshot records.
const snapshotEvery = 256

// Frame geometry: the header is the payload length and its crc, the
// trailer the payload's crc. maxFramePayload bounds one payload on both
// sides, so the reader never trusts a length the writer could not have
// produced.
const (
	frameHeaderLen  = 8
	frameTrailerLen = 4
	maxFramePayload = 1 << 28
)

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// Record is one committed operation in a machine's write-ahead journal.
// Only the fields of its kind are encoded.
type Record struct {
	// Seq numbers records 1..N consecutively within one journal; replay
	// refuses gaps and reordering.
	Seq  uint64
	Kind recKind
	// Batch is the idempotency key of an alloc/free batch; replay
	// rebuilds the dedup cache from it so a client retry that lands
	// after a crash+restart still gets the original placements.
	Batch string

	Spec       MachineSpec    // recRegister
	Interleave int            // recPool
	Allocs     []AllocRequest // recAlloc
	Frees      []string       // recFree
	Snapshot   Snapshot       // recSnapshot
}

// JournalError reports a journal that cannot be recovered from: a
// malformed record before the tail, a sequence gap, a header mismatch,
// an unsupported format version, or a snapshot record that disagrees
// with replayed state. It is deliberately loud — serving a machine
// whose history is corrupt would corrupt placements silently.
type JournalError struct {
	Path string
	// Line numbers the header 1 and the i-th record (from 0) i+2; 0
	// when not record-specific.
	Line   int
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
	// buf holds the frame being written; every append reuses it.
	buf []byte
}

// journalPath names a machine's journal under dir.
func journalPath(dir, machineID string) string {
	return filepath.Join(dir, machineID+journalExt)
}

// journalHeader is the first line of machineID's journal.
func journalHeader(machineID string) string {
	return journalMagic + " " + machineID + "\n"
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
	if _, err := f.WriteString(journalHeader(machineID)); err != nil {
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

// append commits one record: assigns the next sequence number, frames
// it, and writes the frame in a single syscall. The record is committed
// once append returns — the caller executes it only after.
func (j *journal) append(rec *Record) error {
	rec.Seq = j.seq + 1
	frame, err := appendFrame(j.buf[:0], rec)
	j.buf = frame
	if err != nil {
		return err
	}
	if _, err := j.f.Write(frame); err != nil {
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

// appendFrame appends rec's frame to dst.
func appendFrame(dst []byte, rec *Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderLen)...)
	dst = appendRecord(dst, rec)
	n := len(dst) - start - frameHeaderLen
	if n > maxFramePayload {
		return dst[:start], fmt.Errorf("affinityd: journal record of %d bytes exceeds the %d-byte frame limit",
			n, maxFramePayload)
	}
	h := dst[start : start+frameHeaderLen]
	binary.LittleEndian.PutUint32(h, uint32(n))
	binary.LittleEndian.PutUint32(h[4:], crc32.Checksum(h[:4], journalCRC))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start+frameHeaderLen:], journalCRC)), nil
}

// appendRecord appends rec's payload to b.
func appendRecord(b []byte, rec *Record) []byte {
	b = append(b, byte(rec.Kind))
	b = binary.AppendUvarint(b, rec.Seq)
	b = appendStr(b, rec.Batch)
	switch rec.Kind {
	case recRegister:
		s := &rec.Spec
		b = binary.AppendVarint(b, int64(s.MeshW))
		b = binary.AppendVarint(b, int64(s.MeshH))
		b = binary.AppendVarint(b, s.Seed)
		b = appendStr(b, s.Policy)
		b = appendStr(b, s.Faults)
	case recPool:
		b = binary.AppendVarint(b, int64(rec.Interleave))
	case recAlloc:
		b = binary.AppendUvarint(b, uint64(len(rec.Allocs)))
		for i := range rec.Allocs {
			b = appendAllocRequest(b, &rec.Allocs[i])
		}
	case recFree:
		b = binary.AppendUvarint(b, uint64(len(rec.Frees)))
		for _, id := range rec.Frees {
			b = appendStr(b, id)
		}
	case recSnapshot:
		b = binary.AppendUvarint(b, rec.Snapshot.Allocs)
		b = binary.AppendVarint(b, int64(rec.Snapshot.LiveHandles))
		b = appendStr(b, rec.Snapshot.StateSum)
	}
	return b
}

// allocRequestMinLen is the fewest payload bytes one encoded
// AllocRequest takes: one per field.
const allocRequestMinLen = 13

func appendAllocRequest(b []byte, q *AllocRequest) []byte {
	b = appendStr(b, q.ID)
	b = appendStr(b, q.Kind)
	b = appendStr(b, q.Mode)
	b = binary.AppendVarint(b, int64(q.ElemSize))
	b = binary.AppendVarint(b, q.NumElem)
	b = appendStr(b, q.AlignTo)
	b = binary.AppendVarint(b, int64(q.AlignP))
	b = binary.AppendVarint(b, int64(q.AlignQ))
	b = binary.AppendVarint(b, q.AlignX)
	if q.Partition {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, q.Size)
	b = binary.AppendUvarint(b, uint64(len(q.Affinity)))
	for _, e := range q.Affinity {
		b = appendStr(b, e.Ref)
		b = binary.AppendVarint(b, e.Elem)
	}
	b = binary.AppendUvarint(b, uint64(len(q.BankProbe)))
	for _, v := range q.BankProbe {
		b = binary.AppendVarint(b, v)
	}
	return b
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// recReader consumes one payload; the first error poisons it.
type recReader struct {
	buf []byte
	err error
}

func (r *recReader) fail(msg string) {
	if r.err == nil {
		r.err = errors.New(msg)
	}
}

func (r *recReader) byte1() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.fail("truncated payload")
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

// u reads a uvarint, refusing the padded forms the encoder never writes
// (a last byte of zero after the first), so decoding is one-to-one.
func (r *recReader) u() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	if n > 1 && r.buf[n-1] == 0 {
		r.fail("padded varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// i reads a zigzag varint.
func (r *recReader) i() int64 {
	v := r.u()
	return int64(v>>1) ^ -int64(v&1)
}

// int reads a zigzag varint into an int, refusing values that would
// wrap.
func (r *recReader) int() int {
	v := r.i()
	if int64(int(v)) != v {
		r.fail("integer field out of range")
		return 0
	}
	return int(v)
}

func (r *recReader) flag() bool {
	v := r.byte1()
	if v > 1 {
		r.fail("flag byte is neither 0 nor 1")
	}
	return v == 1
}

// str reads a length-prefixed string into its own allocation, so no
// long-lived key pins the journal's bytes.
func (r *recReader) str() string {
	n := r.u()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)) {
		r.fail("truncated string")
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// count reads a list length no larger than the payload left could
// hold at minLen bytes an element.
func (r *recReader) count(minLen int) int {
	n := r.u()
	if n > uint64(len(r.buf)/minLen) {
		r.fail("list count exceeds payload")
		return 0
	}
	return int(n)
}

// decodeRecord decodes one verified payload. It accepts exactly the
// bytes appendRecord writes.
func decodeRecord(payload []byte) (Record, error) {
	r := recReader{buf: payload}
	var rec Record
	rec.Kind = recKind(r.byte1())
	rec.Seq = r.u()
	rec.Batch = r.str()
	if r.err != nil {
		return rec, r.err
	}
	switch rec.Kind {
	case recRegister:
		s := &rec.Spec
		s.MeshW = r.int()
		s.MeshH = r.int()
		s.Seed = r.i()
		s.Policy = r.str()
		s.Faults = r.str()
	case recPool:
		rec.Interleave = r.int()
	case recAlloc:
		if n := r.count(allocRequestMinLen); n > 0 {
			rec.Allocs = make([]AllocRequest, n)
			for i := range rec.Allocs {
				r.allocRequest(&rec.Allocs[i])
			}
		}
	case recFree:
		if n := r.count(1); n > 0 {
			rec.Frees = make([]string, n)
			for i := range rec.Frees {
				rec.Frees[i] = r.str()
			}
		}
	case recSnapshot:
		rec.Snapshot.Allocs = r.u()
		rec.Snapshot.LiveHandles = r.int()
		rec.Snapshot.StateSum = r.str()
	default:
		return rec, fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	if r.err == nil && len(r.buf) > 0 {
		r.fail(fmt.Sprintf("%d bytes after the record's last field", len(r.buf)))
	}
	return rec, r.err
}

func (r *recReader) allocRequest(q *AllocRequest) {
	q.ID = r.str()
	q.Kind = r.str()
	q.Mode = r.str()
	q.ElemSize = r.int()
	q.NumElem = r.i()
	q.AlignTo = r.str()
	q.AlignP = r.int()
	q.AlignQ = r.int()
	q.AlignX = r.i()
	q.Partition = r.flag()
	q.Size = r.i()
	if n := r.count(2); n > 0 {
		q.Affinity = make([]ElemRef, n)
		for i := range q.Affinity {
			q.Affinity[i] = ElemRef{Ref: r.str(), Elem: r.i()}
		}
	}
	if n := r.count(1); n > 0 {
		q.BankProbe = make([]int64, n)
		for i := range q.BankProbe {
			q.BankProbe[i] = r.i()
		}
	}
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

// readJournal reads and verifies a journal file.
func readJournal(path string) (*journalLog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("affinityd: read journal: %w", err)
	}
	return parseJournal(path, data)
}

// parseJournal verifies the bytes of the journal at path. A torn tail is
// tolerated and reported via the returned log; everything else that is
// wrong fails with a typed *JournalError.
func parseJournal(path string, data []byte) (*journalLog, error) {
	lg := &journalLog{path: path, tornSize: -1}

	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, &JournalError{Path: path, Line: 1, Reason: "missing header line"}
	}
	header := string(data[:nl])
	magic, machineID, ok := strings.Cut(header, " ")
	if magic == journalMagicV1 {
		return nil, &JournalError{Path: path, Line: 1,
			Reason: fmt.Sprintf("journal format %s is no longer read (this daemon reads %s); restart with -journal-reset to discard its history",
				journalMagicV1, journalMagic)}
	}
	if !ok || magic != journalMagic || machineID == "" {
		return nil, &JournalError{Path: path, Line: 1,
			Reason: fmt.Sprintf("bad header %q (want %q <machine-id>)", header, journalMagic)}
	}
	lg.machineID = machineID

	for off := nl + 1; off < len(data); {
		line := len(lg.records) + 2 // the header is line 1
		rest := data[off:]
		if len(rest) < frameHeaderLen {
			// The write was cut short inside the frame header. A cut can
			// only leave the final frame short — and here it is, by
			// construction of the scan.
			lg.torn, lg.tornSize = true, int64(off)
			break
		}
		n := binary.LittleEndian.Uint32(rest)
		if crc32.Checksum(rest[:4], journalCRC) != binary.LittleEndian.Uint32(rest[4:frameHeaderLen]) {
			return nil, &JournalError{Path: path, Line: line, Reason: "frame header fails its check"}
		}
		if n > maxFramePayload {
			return nil, &JournalError{Path: path, Line: line,
				Reason: fmt.Sprintf("frame length %d exceeds the %d-byte limit", n, maxFramePayload)}
		}
		end := frameHeaderLen + int(n) + frameTrailerLen
		if len(rest) < end {
			lg.torn, lg.tornSize = true, int64(off)
			break
		}
		payload := rest[frameHeaderLen : end-frameTrailerLen]
		if got, want := crc32.Checksum(payload, journalCRC), binary.LittleEndian.Uint32(rest[end-frameTrailerLen:]); got != want {
			if len(rest) == end {
				// A complete-looking final frame whose payload fails its
				// crc: still the signature of an interrupted append (the
				// length landed, the payload didn't). Truncate it away.
				lg.torn, lg.tornSize = true, int64(off)
				break
			}
			return nil, &JournalError{Path: path, Line: line,
				Reason: fmt.Sprintf("crc mismatch: computed %08x, recorded %08x", got, want)}
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil, &JournalError{Path: path, Line: line, Reason: "record does not decode: " + err.Error()}
		}
		if want := uint64(len(lg.records) + 1); rec.Seq != want {
			return nil, &JournalError{Path: path, Line: line,
				Reason: fmt.Sprintf("sequence gap: record %d, want %d", rec.Seq, want)}
		}
		lg.records = append(lg.records, rec)
		off += end
	}
	if len(lg.records) == 0 || lg.records[0].Kind != recRegister {
		return nil, &JournalError{Path: path, Line: 2,
			Reason: "journal does not begin with a register record"}
	}
	return lg, nil
}

// Snapshot is the payload of a snapshot record: the alloc count, the
// live-handle count and a hash of the live placement state after the
// record before it. Replay checks all three when it reaches the record.
type Snapshot struct {
	Allocs      uint64
	LiveHandles int
	StateSum    string
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
