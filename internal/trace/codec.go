package trace

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
)

// The afftrace/v1 payload codec. Every afftrace/v1 payload — a trace's
// scenario and event frames (binary.go) and affinityd's journal records
// — is a fixed sequence of fields, each one of:
//
//   - a byte (frame type, record kind, event kind, alloc op);
//   - a flag: one byte, 0 or 1;
//   - a uvarint, for a count or a non-negative integer;
//   - a zigzag varint, for an integer that may be negative;
//   - a string: a uvarint length, then the bytes.
//
// Writer appends fields and Reader consumes them. The framing around a
// payload is each format's own; both check a frame with Checksum.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the crc32c (Castagnoli) of p: the check every afftrace/v1
// frame carries.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Writer appends payload fields to Buf, one method per field kind.
// Reusing a Writer's Buf across payloads keeps encoding allocation-free
// once it has grown.
type Writer struct{ Buf []byte }

func (w *Writer) Byte(v byte)      { w.Buf = append(w.Buf, v) }
func (w *Writer) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }
func (w *Writer) Varint(v int64)   { w.Buf = binary.AppendVarint(w.Buf, v) }
func (w *Writer) Str(s string)     { w.Uvarint(uint64(len(s))); w.Buf = append(w.Buf, s...) }
func (w *Writer) Flag(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Reader consumes one payload. It accepts only the form Writer writes,
// so decoding is one-to-one: canonical varints, flags of 0 or 1, int
// fields in range, and list counts the bytes left can hold. The first
// error poisons it: every later read returns zero and Err reports the
// first failure.
type Reader struct {
	buf []byte
	err error
}

// NewReader reads payload.
func NewReader(payload []byte) Reader { return Reader{buf: payload} }

// Err returns the first read error, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(msg string) {
	if r.err == nil {
		r.err = errors.New(msg)
	}
}

// End returns Err, or an error when bytes follow the last field.
func (r *Reader) End() error {
	if r.err == nil && len(r.buf) > 0 {
		r.fail("bytes after the payload's last field")
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
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

// Flag reads a flag byte, refusing any value but 0 and 1.
func (r *Reader) Flag() bool {
	v := r.Byte()
	if v > 1 {
		r.fail("flag byte is neither 0 nor 1")
	}
	return v == 1
}

// uvarint decodes the canonical uvarint at the front of b, returning
// n <= 0 when b holds none: truncated, longer than ten bytes, past
// 64 bits, or padded with a final zero byte the encoder never writes.
func uvarint(b []byte) (v uint64, n int) {
	v, n = binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -n
	}
	return v, n
}

// Uvarint reads a canonical uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := uvarint(r.buf)
	if n <= 0 {
		r.fail("truncated, overlong or padded varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	v := r.Uvarint()
	return int64(v>>1) ^ -int64(v&1)
}

// Int reads a zigzag varint into an int, refusing values that would
// wrap.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.fail("int field out of range")
		return 0
	}
	return int(v)
}

// maxNat is the largest value Nat accepts, so an int field read with it
// means the same on every platform.
const maxNat = math.MaxInt32

// Nat reads a uvarint into an int no larger than math.MaxInt32.
func (r *Reader) Nat() int {
	v := r.Uvarint()
	if v > maxNat {
		r.fail("int field out of range")
		return 0
	}
	return int(v)
}

// Uint32 reads a uvarint that must fit 32 bits.
func (r *Reader) Uint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.fail("int field out of range")
		return 0
	}
	return uint32(v)
}

// Str reads a length-prefixed string into its own allocation, so no
// long-lived value pins the payload's bytes.
func (r *Reader) Str() string {
	n := r.Uvarint()
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

// Count reads a list length no larger than the bytes left could hold
// at minLen bytes an element, so a corrupt count cannot size a huge
// allocation.
func (r *Reader) Count(minLen int) int {
	n := r.Uvarint()
	if n > uint64(len(r.buf)/minLen) {
		r.fail("list count exceeds payload")
		return 0
	}
	return int(n)
}
