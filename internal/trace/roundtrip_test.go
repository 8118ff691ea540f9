package trace_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"affinityalloc/internal/sys"
	"affinityalloc/internal/trace"
	"affinityalloc/internal/workloads"
)

var updateExample = flag.Bool("update", false, "regenerate the committed example trace")

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

// Both encodings must round-trip a real recorded trace bit-exactly.
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

	jl := trace.EncodeJSONL(tr)
	got2, err := trace.ParseJSONL(jl)
	if err != nil {
		t.Fatalf("ParseJSONL: %v", err)
	}
	if !bytes.Equal(trace.EncodeJSONL(got2), jl) {
		t.Error("JSONL round trip is not bit-stable")
	}

	// Cross-encoding: binary-decoded and JSONL-decoded traces agree.
	if !bytes.Equal(trace.EncodeJSONL(got), jl) {
		t.Error("binary and JSONL decode to different traces")
	}

	// DecodeAny detects both.
	if _, err := trace.DecodeAny(bin); err != nil {
		t.Errorf("DecodeAny(binary): %v", err)
	}
	if _, err := trace.DecodeAny(jl); err != nil {
		t.Errorf("DecodeAny(jsonl): %v", err)
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

// WriteFile/ReadFile choose the encoding by extension and round-trip.
func TestFileRoundTrip(t *testing.T) {
	tr := &trace.Trace{Scenarios: []*trace.Scenario{recordTiny(t, tinyVecAdd(), sys.AffAlloc, 1)}}
	dir := t.TempDir()
	for _, name := range []string{"t.afftrace", "t.jsonl"} {
		p := filepath.Join(dir, name)
		if err := trace.WriteFile(p, tr); err != nil {
			t.Fatalf("WriteFile(%s): %v", name, err)
		}
		got, err := trace.ReadFile(p)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", name, err)
		}
		if !bytes.Equal(trace.EncodeJSONL(got), trace.EncodeJSONL(tr)) {
			t.Errorf("%s did not round-trip", name)
		}
	}
}

// The committed example trace must stay parseable and replayable — the
// format-stability gate for afftrace/v1. Regenerate with
//
//	go test ./internal/trace -run TestCommittedExampleTrace -update
func TestCommittedExampleTrace(t *testing.T) {
	const examplePath = "testdata/example_vecadd.jsonl"
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
	tr, err := trace.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Scenarios) == 0 {
		t.Fatal("example trace has no scenarios")
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

// Traces written while the scenario header still carried a kernel
// shard count must keep decoding and replaying: the binary decoder
// reads the retired slot and discards it (the encoder writes 0 there),
// and the JSONL decoder ignores the unknown "shards" key.
func TestRetiredShardSlotStillDecodes(t *testing.T) {
	example, err := os.ReadFile("testdata/example_vecadd.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := trace.ParseJSONL(example)
	if err != nil {
		t.Fatal(err)
	}
	sc := orig.Scenarios[0]
	want := trace.RecordedDump(sc)
	replays := func(name string, got *trace.Trace) {
		t.Helper()
		if len(got.Scenarios) != 1 {
			t.Fatalf("%s: %d scenarios, want 1", name, len(got.Scenarios))
		}
		res, err := trace.Replay(got.Scenarios[0], trace.Options{})
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		if !bytes.Equal(res.PlacementDump(), want) {
			t.Errorf("%s: replay diverged from the recorded placements", name)
		}
	}

	// JSONL: a scenario header with "shards":4.
	withKey := strings.Replace(string(example), `"mesh_w":`, `"shards":4,"mesh_w":`, 1)
	if withKey == string(example) {
		t.Fatal("example trace has no scenario header to patch")
	}
	fromJSONL, err := trace.ParseJSONL([]byte(withKey))
	if err != nil {
		t.Fatalf("JSONL with a shards key: %v", err)
	}
	replays("jsonl", fromJSONL)

	// Binary: set the header's shard slot to 4 and re-seal the frame CRC.
	bin := trace.Encode(orig)
	const magic = len("AFFTRC1\n")
	n, sz := binary.Uvarint(bin[magic:])
	payload := bin[magic+sz : magic+sz+int(n)]
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	prefix := str(str([]byte{1}, sc.Label), sc.Mode)
	prefix = binary.AppendUvarint(binary.AppendUvarint(prefix, uint64(sc.MeshW)), uint64(sc.MeshH))
	prefix = str(str(binary.AppendVarint(prefix, sc.Seed), sc.Policy), sc.Faults)
	if !bytes.HasPrefix(payload, prefix) || payload[len(prefix)] != 0 {
		t.Fatalf("binary header layout changed: the shard slot is not a 0 after %d bytes", len(prefix))
	}
	patched := append([]byte(nil), bin...)
	pp := patched[magic+sz : magic+sz+int(n)]
	pp[len(prefix)] = 4
	binary.LittleEndian.PutUint32(patched[magic+sz+int(n):], crc32.Checksum(pp, crc32.MakeTable(crc32.Castagnoli)))
	fromBin, err := trace.Decode(patched)
	if err != nil {
		t.Fatalf("binary with a nonzero shard slot: %v", err)
	}
	replays("binary", fromBin)
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
