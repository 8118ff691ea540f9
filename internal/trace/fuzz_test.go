package trace_test

import (
	"bytes"
	"testing"

	"affinityalloc/internal/trace"
)

// fuzzSeed builds a small hand-made trace exercising every event kind,
// so the fuzzer starts from a structurally interesting corpus without
// paying for a simulation per worker process.
func fuzzSeed() *trace.Trace {
	sc := trace.NoisyNeighbor(trace.NoiseSpec{Seed: 1, Bytes: 1 << 16, Bursts: 1, Flows: 4})
	sc.Events = append(sc.Events,
		trace.Event{Kind: trace.KindOpenPool, Interleave: 256},
		trace.Event{Kind: trace.KindAlloc, Op: trace.OpAffine, ElemSize: 4, NumElem: 64,
			Base: 0x1000, ResIl: 4096, Stride: 4, StartBank: 3, PageMapped: true},
		trace.Event{Kind: trace.KindAlloc, Op: trace.OpNear, Size: 512,
			Affinity: []trace.Ref{{Ref: 2, Elem: 7}, {Elem: -1, Raw: 0xdead}}},
		trace.Event{Kind: trace.KindPreload, Ref: 2, Off: 64, Size: 128},
		trace.Event{Kind: trace.KindFree, Ref: 3},
		trace.Event{Kind: trace.KindAlloc, Op: trace.OpAffineBank, ElemSize: 8, NumElem: 16,
			Bank: 5, Err: "simulated failure"},
	)
	return &trace.Trace{Scenarios: []*trace.Scenario{sc}}
}

// FuzzTraceDecode hammers the framed-binary decoder: arbitrary bytes
// must never panic or over-allocate, input without the binary magic is
// refused, and anything accepted must be valid and re-encode/decode to
// the same trace (canonical form is a fixed point). The seed corpus in
// testdata/fuzz/FuzzTraceDecode also holds the example trace in the
// JSONL text form afftrace/v1 files once had, which must be refused.
func FuzzTraceDecode(f *testing.F) {
	seed := trace.Encode(fuzzSeed())
	f.Add(seed)
	f.Add(seed[:len(seed)-6])
	f.Add([]byte("AFFTRC1\n"))
	f.Add([]byte{})
	corrupt := append([]byte(nil), seed...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(data)
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, []byte("AFFTRC1\n")) {
			t.Fatal("Decode accepted input without the binary magic")
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("Decode accepted an invalid trace: %v", verr)
		}
		re := trace.Encode(tr)
		tr2, err := trace.Decode(re)
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if !bytes.Equal(trace.Encode(tr2), re) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
