package trace_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"affinityalloc/internal/sys"
	"affinityalloc/internal/trace"
	"affinityalloc/internal/workloads"
)

var updateExample = flag.Bool("update", false, "regenerate the committed example trace")

// examplePath is the committed afftrace/v1 example: a tiny vecadd run
// under Aff-Alloc, seed 1.
const examplePath = "testdata/example_vecadd.afftrace"

// recordTiny records one tiny workload run under the given mode and
// returns its scenario.
func recordTiny(t *testing.T, w workloads.Workload, mode sys.Mode, seed int64) *trace.Scenario {
	t.Helper()
	cfg := sys.DefaultConfig()
	cfg.Seed = seed
	rec := trace.NewRecorder(w.Name())
	if _, err := workloads.RunTraced(cfg, w, mode, rec); err != nil {
		t.Fatalf("record %s: %v", w.Name(), err)
	}
	sc := rec.Scenario()
	if len(sc.Events) == 0 {
		t.Fatalf("record %s: empty scenario", w.Name())
	}
	return sc
}

func tinyVecAdd() workloads.Workload { return workloads.VecAdd{N: 1 << 10, ForceDelta: -1} }
func tinyHashJoin() workloads.Workload {
	return workloads.HashJoin{BuildRows: 1 << 9, ProbeRows: 1 << 10, Buckets: 1 << 7, HitRate: 0.25}
}

// The encoding must round-trip a real recorded trace bit-exactly.
func TestEncodingRoundTrip(t *testing.T) {
	tr := &trace.Trace{Scenarios: []*trace.Scenario{
		recordTiny(t, tinyVecAdd(), sys.AffAlloc, 1),
		recordTiny(t, tinyHashJoin(), sys.AffAlloc, 1),
	}}

	bin := trace.Encode(tr)
	got, err := trace.Decode(bin)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(trace.Encode(got), bin) {
		t.Error("binary round trip is not bit-stable")
	}
}

// Every trace Validate accepts must decode back from its encoding: an
// int field the decoder would refuse as out of range is refused by
// Validate first. The rows are recordable — core.Runtime.OpenPool
// reports its interleave before it checks it — and each holds one value
// that fits an int but not the encoding's int fields, except the valid
// row, which holds the largest value they take.
func TestValidatedTraceRoundTrips(t *testing.T) {
	for name, e := range map[string]trace.Event{
		"valid open_pool interleave 1<<31-1": {Kind: trace.KindOpenPool, Interleave: 1<<31 - 1},
		"open_pool interleave -1":            {Kind: trace.KindOpenPool, Interleave: -1},
		"open_pool interleave 1<<31":         {Kind: trace.KindOpenPool, Interleave: 1 << 31},
		"affine align_p -1":                  {Kind: trace.KindAlloc, Op: trace.OpAffine, ElemSize: 4, NumElem: 8, AlignP: -1},
		"stream flow from -1":                {Kind: trace.KindStream, Migs: []trace.Flow{{From: -1, To: 2, N: 1}}},
		"near elem size 1<<31":               {Kind: trace.KindAlloc, Op: trace.OpNear, ElemSize: 1 << 31, Size: 64},
	} {
		tr := &trace.Trace{Scenarios: []*trace.Scenario{{Label: name, Events: []trace.Event{e}}}}
		if err := tr.Validate(); err != nil {
			if strings.HasPrefix(name, "valid") {
				t.Errorf("%s: Validate refuses it: %v", name, err)
			}
			continue
		}
		if _, err := trace.Decode(trace.Encode(tr)); err != nil {
			t.Errorf("%s: Validate accepts the trace but its encoding does not decode: %v", name, err)
		}
	}
}

// A flipped payload byte must be caught by the frame CRC.
func TestBinaryDetectsCorruption(t *testing.T) {
	tr := &trace.Trace{Scenarios: []*trace.Scenario{recordTiny(t, tinyVecAdd(), sys.AffAlloc, 1)}}
	bin := trace.Encode(tr)
	for _, i := range []int{len(bin) / 2, len(bin) - 5} {
		bad := append([]byte(nil), bin...)
		bad[i] ^= 0x40
		if _, err := trace.Decode(bad); err == nil {
			t.Errorf("flipping byte %d went undetected", i)
		}
	}
	if _, err := trace.Decode(bin[:len(bin)-3]); err == nil {
		t.Error("truncated trace went undetected")
	}
}

// WriteFile writes the binary encoding whatever the extension, and
// ReadFile reads it back.
func TestFileRoundTrip(t *testing.T) {
	tr := &trace.Trace{Scenarios: []*trace.Scenario{recordTiny(t, tinyVecAdd(), sys.AffAlloc, 1)}}
	want := trace.Encode(tr)
	dir := t.TempDir()
	for _, name := range []string{"t.afftrace", "t.jsonl"} {
		p := filepath.Join(dir, name)
		if err := trace.WriteFile(p, tr); err != nil {
			t.Fatalf("WriteFile(%s): %v", name, err)
		}
		if data, err := os.ReadFile(p); err != nil || !bytes.Equal(data, want) {
			t.Errorf("WriteFile(%s) did not write the binary encoding (err %v)", name, err)
		}
		got, err := trace.ReadFile(p)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", name, err)
		}
		if !bytes.Equal(trace.Encode(got), want) {
			t.Errorf("%s did not round-trip", name)
		}
	}
}

// The committed example trace must stay decodable, canonical and
// replayable — the format-stability gate for afftrace/v1: a change to
// the field order or width of any frame fails here. Regenerate with
//
//	go test ./internal/trace -run TestCommittedExampleTrace -update
func TestCommittedExampleTrace(t *testing.T) {
	if *updateExample {
		tr := &trace.Trace{Scenarios: []*trace.Scenario{recordTiny(t, tinyVecAdd(), sys.AffAlloc, 1)}}
		if err := os.MkdirAll(filepath.Dir(examplePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteFile(examplePath, tr); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", examplePath)
	}
	data, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Scenarios) == 0 {
		t.Fatal("example trace has no scenarios")
	}
	if !bytes.Equal(trace.Encode(tr), data) {
		t.Error("re-encoding the committed example trace changed its bytes")
	}
	for _, sc := range tr.Scenarios {
		res, err := trace.Replay(sc, trace.Options{})
		if err != nil {
			t.Fatalf("replay %s: %v", sc.Label, err)
		}
		if got, want := res.PlacementDump(), trace.RecordedDump(sc); !bytes.Equal(got, want) {
			t.Errorf("replay of committed %s diverged from its recorded placements:\ngot:\n%s\nwant:\n%s",
				sc.Label, got, want)
		}
	}
}

// withShardSlots returns a copy of bin, a binary afftrace/v1 trace,
// with the retired shard-count slot of every scenario header set to n
// (below 128, so its uvarint stays one byte) and each patched frame's
// Castagnoli CRC re-sealed: the bytes a recording made while headers
// still named a kernel shard count carries. The slot follows the label,
// mode, mesh_w, mesh_h, seed, policy and faults fields.
func withShardSlots(t *testing.T, bin []byte, n byte) []byte {
	t.Helper()
	out := append([]byte(nil), bin...)
	patched := 0
	for p := len("AFFTRC1\n"); p < len(out); {
		size, sz := binary.Uvarint(out[p:])
		payload := out[p+sz : p+sz+int(size)]
		p += sz + int(size) + 4
		if payload[0] != 1 { // not a scenario frame
			continue
		}
		q := 1
		for _, isStr := range []bool{true, true, false, false, false, true, true} {
			v, k := binary.Uvarint(payload[q:])
			q += k
			if isStr {
				q += int(v)
			}
		}
		if payload[q] != 0 {
			t.Fatalf("binary header layout changed: byte %d of a scenario frame is not the shard slot's 0", q)
		}
		payload[q] = n
		binary.LittleEndian.PutUint32(out[p-4:], trace.Checksum(payload))
		patched++
	}
	if patched == 0 {
		t.Fatal("trace has no scenario header to patch")
	}
	return out
}

// Traces written while the scenario header still carried a kernel
// shard count must keep decoding and replaying: the decoder reads the
// retired slot and discards it, and the encoder writes 0 there.
func TestRetiredShardSlotStillDecodes(t *testing.T) {
	bin, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := trace.Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := trace.Decode(withShardSlots(t, bin, 4))
	if err != nil {
		t.Fatalf("binary with a nonzero shard slot: %v", err)
	}
	if len(fromBin.Scenarios) != 1 {
		t.Fatalf("%d scenarios, want 1", len(fromBin.Scenarios))
	}
	res, err := trace.Replay(fromBin.Scenarios[0], trace.Options{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !bytes.Equal(res.PlacementDump(), trace.RecordedDump(orig.Scenarios[0])) {
		t.Error("replay diverged from the recorded placements")
	}
	if !bytes.Equal(trace.Encode(fromBin), bin) {
		t.Error("re-encoding a trace with a nonzero shard slot did not write 0 there")
	}
}

// Recording must be pure observation: a recorded run's result is
// byte-identical to a direct run of the same configuration.
func TestRecordingIsPureObservation(t *testing.T) {
	cfg := sys.DefaultConfig()
	cfg.Seed = 1
	for _, mode := range sys.Modes {
		w := tinyVecAdd()
		direct, err := workloads.Run(cfg, w, mode)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder(w.Name())
		traced, err := workloads.RunTraced(cfg, w, mode, rec)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Checksum != traced.Checksum || direct.Metrics.Cycles != traced.Metrics.Cycles {
			t.Errorf("%v: recording perturbed the run: cycles %d vs %d, checksum %x vs %x",
				mode, direct.Metrics.Cycles, traced.Metrics.Cycles, direct.Checksum, traced.Checksum)
		}
	}
}
