package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Binary encoding: an 8-byte magic, then one frame per record. Each
// frame is
//
//	uvarint(len(payload)) | payload | crc32(payload) LE
//
// and the payload's first byte is the frame type (scenario header or
// event) followed by type-specific fields in fixed order — uvarints for
// non-negative integers, zigzag varints where a field can go negative,
// length-prefixed strings. The format is append-only streamable: a
// scenario owns every event frame until the next scenario frame or EOF.

// binMagic identifies afftrace/v1 binary files.
var binMagic = []byte("AFFTRC1\n")

const (
	frameScenario = 1
	frameEvent    = 2

	// maxFrame bounds one frame's payload; decoders reject bigger
	// frames before allocating.
	maxFrame = 1 << 26
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// kind/op <-> byte tables for the binary encoding.
var kindToByte = map[string]byte{
	KindOpenPool: 1, KindAlloc: 2, KindFree: 3,
	KindAccess: 4, KindPreload: 5, KindStream: 6,
}
var byteToKind = map[byte]string{
	1: KindOpenPool, 2: KindAlloc, 3: KindFree,
	4: KindAccess, 5: KindPreload, 6: KindStream,
}
var opToByte = map[string]byte{
	OpAffine: 1, OpAffineBank: 2, OpNear: 3, OpNearBank: 4, OpBase: 5,
}
var byteToOp = map[byte]string{
	1: OpAffine, 2: OpAffineBank, 3: OpNear, 4: OpNearBank, 5: OpBase,
}

// binWriter accumulates one frame payload.
type binWriter struct{ buf []byte }

func (w *binWriter) u(v uint64)   { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *binWriter) i(v int64)    { w.buf = binary.AppendVarint(w.buf, v) }
func (w *binWriter) b(v bool)     { w.buf = append(w.buf, boolByte(v)) }
func (w *binWriter) byte1(v byte) { w.buf = append(w.buf, v) }
func (w *binWriter) str(s string) { w.u(uint64(len(s))); w.buf = append(w.buf, s...) }

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// binReader consumes one frame payload; every read error poisons it.
type binReader struct {
	buf []byte
	err error
}

func (r *binReader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("trace: %s", msg)
	}
}

func (r *binReader) u() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *binReader) i() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *binReader) b() bool { return r.byte1() != 0 }

func (r *binReader) byte1() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.fail("truncated byte")
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

func (r *binReader) str() string {
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

// count reads a list length and rejects counts that cannot fit in the
// remaining payload (each element takes >= perElem bytes), so a fuzzed
// length cannot force a huge allocation.
func (r *binReader) count(perElem int) int {
	n := r.u()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)/perElem)+1 || n > math.MaxInt32 {
		r.fail("list count exceeds payload")
		return 0
	}
	return int(n)
}

// intOr converts with a range check (decoders must not let a fuzzed
// 64-bit value wrap an int field).
func (r *binReader) intv() int {
	v := r.u()
	if v > math.MaxInt32 {
		r.fail("int field out of range")
		return 0
	}
	return int(v)
}

// Encode serializes a trace to the framed binary form.
func Encode(t *Trace) []byte {
	out := append([]byte(nil), binMagic...)
	frame := func(payload []byte) {
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	}
	for _, sc := range t.Scenarios {
		var w binWriter
		w.byte1(frameScenario)
		w.str(sc.Label)
		w.str(sc.Mode)
		w.u(uint64(sc.MeshW))
		w.u(uint64(sc.MeshH))
		w.i(sc.Seed)
		w.str(sc.Policy)
		w.str(sc.Faults)
		w.u(0) // retired shard-count slot, kept so afftrace/v1 stays readable
		w.u(uint64(len(sc.Tenants)))
		for _, t := range sc.Tenants {
			w.str(t)
		}
		w.u(sc.Cycles)
		frame(w.buf)
		for i := range sc.Events {
			frame(encodeEvent(&sc.Events[i]))
		}
	}
	return out
}

func encodeEvent(e *Event) []byte {
	var w binWriter
	w.byte1(frameEvent)
	w.byte1(kindToByte[e.Kind])
	w.u(uint64(e.Tenant))
	switch e.Kind {
	case KindOpenPool:
		w.u(uint64(e.Interleave))
	case KindAlloc:
		w.byte1(opToByte[e.Op])
		w.str(e.Mode)
		w.u(uint64(e.ElemSize))
		w.u(uint64(e.NumElem))
		w.u(uint64(e.AlignRef))
		w.u(e.AlignRaw)
		w.u(uint64(e.AlignP))
		w.u(uint64(e.AlignQ))
		w.i(e.AlignX)
		w.b(e.Part)
		w.u(uint64(e.Size))
		w.u(uint64(e.Bank))
		w.u(uint64(len(e.Affinity)))
		for _, ref := range e.Affinity {
			w.u(uint64(ref.Ref))
			w.i(ref.Elem)
			w.i(ref.Off)
			w.u(ref.Raw)
		}
		w.u(e.Base)
		w.u(uint64(e.ResIl))
		w.u(uint64(e.Stride))
		w.u(uint64(e.StartBank))
		w.b(e.PageMapped)
		w.str(e.Err)
	case KindFree:
		w.u(uint64(e.Ref))
		w.u(e.Raw)
	case KindAccess:
		w.u(uint64(e.Ref))
		w.u(uint64(e.Gran))
		w.u(uint64(len(e.Touches)))
		for _, t := range e.Touches {
			w.u(uint64(t.Chunk))
			w.u(uint64(t.Reads))
			w.u(uint64(t.Writes))
		}
	case KindPreload:
		w.u(uint64(e.Ref))
		w.u(uint64(e.Off))
		w.u(uint64(e.Size))
	case KindStream:
		for _, fs := range [][]Flow{e.Offloads, e.Migs} {
			w.u(uint64(len(fs)))
			for _, f := range fs {
				w.u(uint64(f.From))
				w.u(uint64(f.To))
				w.u(uint64(f.N))
			}
		}
	}
	return w.buf
}

// Decode parses the framed binary form, validating structure so a
// corrupt or adversarial input returns an error instead of panicking.
func Decode(data []byte) (*Trace, error) {
	if !bytes.HasPrefix(data, binMagic) {
		return nil, fmt.Errorf("trace: not an %s binary trace (bad magic)", Version)
	}
	data = data[len(binMagic):]
	t := &Trace{}
	var cur *Scenario
	for len(data) > 0 {
		n, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, fmt.Errorf("trace: truncated frame length")
		}
		if n > maxFrame {
			return nil, fmt.Errorf("trace: frame of %d bytes exceeds cap", n)
		}
		rest := data[sz:]
		if uint64(len(rest)) < n+4 {
			return nil, fmt.Errorf("trace: truncated frame")
		}
		payload := rest[:n]
		sum := binary.LittleEndian.Uint32(rest[n : n+4])
		if crc32.Checksum(payload, crcTable) != sum {
			return nil, fmt.Errorf("trace: frame CRC mismatch")
		}
		data = rest[n+4:]

		r := &binReader{buf: payload}
		switch ft := r.byte1(); ft {
		case frameScenario:
			sc := &Scenario{}
			sc.Label = r.str()
			sc.Mode = r.str()
			sc.MeshW = r.intv()
			sc.MeshH = r.intv()
			sc.Seed = r.i()
			sc.Policy = r.str()
			sc.Faults = r.str()
			r.intv() // retired shard-count slot: read and discarded
			nt := r.count(1)
			for i := 0; i < nt && r.err == nil; i++ {
				sc.Tenants = append(sc.Tenants, r.str())
			}
			sc.Cycles = r.u()
			if r.err != nil {
				return nil, r.err
			}
			t.Scenarios = append(t.Scenarios, sc)
			cur = sc
		case frameEvent:
			if cur == nil {
				return nil, fmt.Errorf("trace: event frame before any scenario")
			}
			e, err := decodeEvent(r)
			if err != nil {
				return nil, err
			}
			cur.Events = append(cur.Events, e)
		default:
			return nil, fmt.Errorf("trace: unknown frame type %d", ft)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func decodeEvent(r *binReader) (Event, error) {
	var e Event
	kb := r.byte1()
	kind, ok := byteToKind[kb]
	if !ok {
		return e, fmt.Errorf("trace: unknown event kind byte %d", kb)
	}
	e.Kind = kind
	e.Tenant = r.intv()
	switch kind {
	case KindOpenPool:
		e.Interleave = r.intv()
	case KindAlloc:
		ob := r.byte1()
		op, ok := byteToOp[ob]
		if !ok && r.err == nil {
			return e, fmt.Errorf("trace: unknown alloc op byte %d", ob)
		}
		e.Op = op
		e.Mode = r.str()
		e.ElemSize = r.intv()
		e.NumElem = int64(r.u())
		e.AlignRef = int64(r.u())
		e.AlignRaw = r.u()
		e.AlignP = r.intv()
		e.AlignQ = r.intv()
		e.AlignX = r.i()
		e.Part = r.b()
		e.Size = int64(r.u())
		e.Bank = r.intv()
		na := r.count(4)
		for i := 0; i < na && r.err == nil; i++ {
			e.Affinity = append(e.Affinity, Ref{
				Ref: int64(r.u()), Elem: r.i(), Off: r.i(), Raw: r.u(),
			})
		}
		e.Base = r.u()
		e.ResIl = r.intv()
		e.Stride = r.intv()
		e.StartBank = r.intv()
		e.PageMapped = r.b()
		e.Err = r.str()
	case KindFree:
		e.Ref = int64(r.u())
		e.Raw = r.u()
	case KindAccess:
		e.Ref = int64(r.u())
		e.Gran = int64(r.u())
		nt := r.count(3)
		for i := 0; i < nt && r.err == nil; i++ {
			e.Touches = append(e.Touches, Touch{
				Chunk: int64(r.u()), Reads: uint32(r.u()), Writes: uint32(r.u()),
			})
		}
	case KindPreload:
		e.Ref = int64(r.u())
		e.Off = int64(r.u())
		e.Size = int64(r.u())
	case KindStream:
		for li := 0; li < 2; li++ {
			nf := r.count(3)
			for i := 0; i < nf && r.err == nil; i++ {
				f := Flow{From: r.intv(), To: r.intv(), N: uint32(r.u())}
				if li == 0 {
					e.Offloads = append(e.Offloads, f)
				} else {
					e.Migs = append(e.Migs, f)
				}
			}
		}
	}
	if r.err != nil {
		return e, r.err
	}
	if len(r.buf) != 0 {
		return e, fmt.Errorf("trace: %d trailing bytes in event frame", len(r.buf))
	}
	return e, nil
}
