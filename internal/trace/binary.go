package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// kindBytes and opBytes give each event kind and alloc op its byte in
// the binary encoding: its index. Byte 0 names nothing, so an unknown
// kind or op encodes to 0 and the decoder refuses it.
var (
	kindBytes = []string{1: KindOpenPool, KindAlloc, KindFree, KindAccess, KindPreload, KindStream}
	opBytes   = []string{1: OpAffine, OpAffineBank, OpNear, OpNearBank, OpBase}
)

// byteOf returns name's byte in table, or 0 when table has no name.
func byteOf(table []string, name string) byte {
	for b := 1; b < len(table); b++ {
		if table[b] == name {
			return byte(b)
		}
	}
	return 0
}

// nameOf returns the name byte b stands for in table, or "" for none.
func nameOf(table []string, b byte) string {
	if int(b) < len(table) {
		return table[b]
	}
	return ""
}

// Encode serializes a trace to the framed binary form.
func Encode(t *Trace) []byte {
	out := append([]byte(nil), binMagic...)
	var w Writer
	frame := func() {
		out = binary.AppendUvarint(out, uint64(len(w.Buf)))
		out = append(out, w.Buf...)
		out = binary.LittleEndian.AppendUint32(out, Checksum(w.Buf))
		w.Buf = w.Buf[:0]
	}
	for _, sc := range t.Scenarios {
		w.Byte(frameScenario)
		w.Str(sc.Label)
		w.Str(sc.Mode)
		w.Uvarint(uint64(sc.MeshW))
		w.Uvarint(uint64(sc.MeshH))
		w.Varint(sc.Seed)
		w.Str(sc.Policy)
		w.Str(sc.Faults)
		w.Uvarint(0) // retired shard-count slot, kept so afftrace/v1 stays readable
		w.Uvarint(uint64(len(sc.Tenants)))
		for _, t := range sc.Tenants {
			w.Str(t)
		}
		w.Uvarint(sc.Cycles)
		frame()
		for i := range sc.Events {
			encodeEvent(&w, &sc.Events[i])
			frame()
		}
	}
	return out
}

func encodeEvent(w *Writer, e *Event) {
	w.Byte(frameEvent)
	w.Byte(byteOf(kindBytes, e.Kind))
	w.Uvarint(uint64(e.Tenant))
	switch e.Kind {
	case KindOpenPool:
		w.Uvarint(uint64(e.Interleave))
	case KindAlloc:
		w.Byte(byteOf(opBytes, e.Op))
		w.Str(e.Mode)
		w.Uvarint(uint64(e.ElemSize))
		w.Uvarint(uint64(e.NumElem))
		w.Uvarint(uint64(e.AlignRef))
		w.Uvarint(e.AlignRaw)
		w.Uvarint(uint64(e.AlignP))
		w.Uvarint(uint64(e.AlignQ))
		w.Varint(e.AlignX)
		w.Flag(e.Part)
		w.Uvarint(uint64(e.Size))
		w.Uvarint(uint64(e.Bank))
		w.Uvarint(uint64(len(e.Affinity)))
		for _, ref := range e.Affinity {
			w.Uvarint(uint64(ref.Ref))
			w.Varint(ref.Elem)
			w.Varint(ref.Off)
			w.Uvarint(ref.Raw)
		}
		w.Uvarint(e.Base)
		w.Uvarint(uint64(e.ResIl))
		w.Uvarint(uint64(e.Stride))
		w.Uvarint(uint64(e.StartBank))
		w.Flag(e.PageMapped)
		w.Str(e.Err)
	case KindFree:
		w.Uvarint(uint64(e.Ref))
		w.Uvarint(e.Raw)
	case KindAccess:
		w.Uvarint(uint64(e.Ref))
		w.Uvarint(uint64(e.Gran))
		w.Uvarint(uint64(len(e.Touches)))
		for _, t := range e.Touches {
			w.Uvarint(uint64(t.Chunk))
			w.Uvarint(uint64(t.Reads))
			w.Uvarint(uint64(t.Writes))
		}
	case KindPreload:
		w.Uvarint(uint64(e.Ref))
		w.Uvarint(uint64(e.Off))
		w.Uvarint(uint64(e.Size))
	case KindStream:
		for _, fs := range [][]Flow{e.Offloads, e.Migs} {
			w.Uvarint(uint64(len(fs)))
			for _, f := range fs {
				w.Uvarint(uint64(f.From))
				w.Uvarint(uint64(f.To))
				w.Uvarint(uint64(f.N))
			}
		}
	}
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
		n, sz := uvarint(data)
		if sz <= 0 {
			return nil, fmt.Errorf("trace: bad frame length")
		}
		if n > maxFrame {
			return nil, fmt.Errorf("trace: frame of %d bytes exceeds cap", n)
		}
		rest := data[sz:]
		if uint64(len(rest)) < n+4 {
			return nil, fmt.Errorf("trace: truncated frame")
		}
		payload := rest[:n]
		if Checksum(payload) != binary.LittleEndian.Uint32(rest[n:n+4]) {
			return nil, fmt.Errorf("trace: frame CRC mismatch")
		}
		data = rest[n+4:]

		r := NewReader(payload)
		switch ft := r.Byte(); ft {
		case frameScenario:
			sc := &Scenario{}
			sc.Label = r.Str()
			sc.Mode = r.Str()
			sc.MeshW = r.Nat()
			sc.MeshH = r.Nat()
			sc.Seed = r.Varint()
			sc.Policy = r.Str()
			sc.Faults = r.Str()
			r.Nat() // retired shard-count slot: read and discarded
			nt := r.Count(1)
			for i := 0; i < nt && r.err == nil; i++ {
				sc.Tenants = append(sc.Tenants, r.Str())
			}
			sc.Cycles = r.Uvarint()
			if err := r.End(); err != nil {
				return nil, fmt.Errorf("trace: scenario frame: %w", err)
			}
			t.Scenarios = append(t.Scenarios, sc)
			cur = sc
		case frameEvent:
			if cur == nil {
				return nil, fmt.Errorf("trace: event frame before any scenario")
			}
			e, err := decodeEvent(&r)
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

func decodeEvent(r *Reader) (Event, error) {
	var e Event
	kb := r.Byte()
	e.Kind = nameOf(kindBytes, kb)
	if e.Kind == "" {
		return e, fmt.Errorf("trace: unknown event kind byte %d", kb)
	}
	e.Tenant = r.Nat()
	switch e.Kind {
	case KindOpenPool:
		e.Interleave = r.Nat()
	case KindAlloc:
		ob := r.Byte()
		e.Op = nameOf(opBytes, ob)
		if e.Op == "" && r.err == nil {
			return e, fmt.Errorf("trace: unknown alloc op byte %d", ob)
		}
		e.Mode = r.Str()
		e.ElemSize = r.Nat()
		e.NumElem = int64(r.Uvarint())
		e.AlignRef = int64(r.Uvarint())
		e.AlignRaw = r.Uvarint()
		e.AlignP = r.Nat()
		e.AlignQ = r.Nat()
		e.AlignX = r.Varint()
		e.Part = r.Flag()
		e.Size = int64(r.Uvarint())
		e.Bank = r.Nat()
		na := r.Count(4)
		for i := 0; i < na && r.err == nil; i++ {
			e.Affinity = append(e.Affinity, Ref{
				Ref: int64(r.Uvarint()), Elem: r.Varint(), Off: r.Varint(), Raw: r.Uvarint(),
			})
		}
		e.Base = r.Uvarint()
		e.ResIl = r.Nat()
		e.Stride = r.Nat()
		e.StartBank = r.Nat()
		e.PageMapped = r.Flag()
		e.Err = r.Str()
	case KindFree:
		e.Ref = int64(r.Uvarint())
		e.Raw = r.Uvarint()
	case KindAccess:
		e.Ref = int64(r.Uvarint())
		e.Gran = int64(r.Uvarint())
		nt := r.Count(3)
		for i := 0; i < nt && r.err == nil; i++ {
			e.Touches = append(e.Touches, Touch{
				Chunk: int64(r.Uvarint()), Reads: r.Uint32(), Writes: r.Uint32(),
			})
		}
	case KindPreload:
		e.Ref = int64(r.Uvarint())
		e.Off = int64(r.Uvarint())
		e.Size = int64(r.Uvarint())
	case KindStream:
		e.Offloads = decodeFlows(r)
		e.Migs = decodeFlows(r)
	}
	if err := r.End(); err != nil {
		return e, fmt.Errorf("trace: event frame: %w", err)
	}
	return e, nil
}

func decodeFlows(r *Reader) []Flow {
	var fs []Flow
	for i, n := 0, r.Count(3); i < n && r.err == nil; i++ {
		fs = append(fs, Flow{From: r.Nat(), To: r.Nat(), N: r.Uint32()})
	}
	return fs
}
