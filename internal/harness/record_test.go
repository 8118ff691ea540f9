package harness

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"affinityalloc/internal/faults"
	"affinityalloc/internal/trace"
	"affinityalloc/internal/workloads"
)

// fig4TraceAndReport runs the Fig-4 experiment with recording on and
// returns (binary trace bytes, rendered figure bytes).
func fig4TraceAndReport(t *testing.T, jobs int, fspec string) ([]byte, []byte) {
	t.Helper()
	opt := Options{Scale: Tiny, Seed: 1, Jobs: jobs}
	if fspec != "" {
		f, err := faults.Parse(fspec)
		if err != nil {
			t.Fatal(err)
		}
		opt.Faults = f
	}
	col := trace.NewCollector()
	opt.Record = col
	fig, err := Fig4(opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.Render(&buf)
	return trace.Encode(col.Trace()), buf.Bytes()
}

// The record→replay differential gate, as a table across three axes:
// worker count (j1/j8), machine health (clean/faulted), and the shard
// count an older recording names in every scenario header (1 from the
// CLI default, 4 from a run sharded four ways). For every combination
// the recorded trace and the rendered figure must be byte-identical to
// the j=1 run (recording is slot-ordered and observation-only), and
// replaying every recorded scenario with zero options must reproduce
// the recorded placements byte-for-byte; the header's shard count is
// ignored.
func TestRecordReplayGate(t *testing.T) {
	type recording struct{ tr1, rep1, tr8, rep8 []byte }
	recorded := map[string]recording{}
	for _, shards := range []int{1, 4} {
		for _, fspec := range []string{"", "dead-banks=2"} {
			t.Run(fmt.Sprintf("shards=%d/faults=%s", shards, fspec), func(t *testing.T) {
				r, ok := recorded[fspec]
				if !ok {
					r.tr1, r.rep1 = fig4TraceAndReport(t, 1, fspec)
					r.tr8, r.rep8 = fig4TraceAndReport(t, 8, fspec)
					recorded[fspec] = r
				}
				if !bytes.Equal(r.tr1, r.tr8) {
					t.Error("recorded trace differs between -j1 and -j8")
				}
				if !bytes.Equal(r.rep1, r.rep8) {
					t.Error("figure differs between -j1 and -j8")
				}
				if len(r.tr1) == 0 {
					t.Fatal("empty recorded trace")
				}
				orig, err := trace.Decode(r.tr1)
				if err != nil {
					t.Fatal(err)
				}
				if len(orig.Scenarios) == 0 {
					t.Fatal("no scenarios recorded")
				}
				decoded, err := trace.Decode(withShardSlots(t, r.tr1, byte(shards)))
				if err != nil {
					t.Fatalf("trace with shards=%d headers: %v", shards, err)
				}
				if len(decoded.Scenarios) != len(orig.Scenarios) {
					t.Fatalf("trace with shards=%d headers decodes to %d scenarios, want %d",
						shards, len(decoded.Scenarios), len(orig.Scenarios))
				}
				for i, sc := range decoded.Scenarios {
					res, err := trace.Replay(sc, trace.Options{})
					if err != nil {
						t.Fatalf("replay %s: %v", sc.Label, err)
					}
					got, want := res.PlacementDump(), trace.RecordedDump(orig.Scenarios[i])
					if !bytes.Equal(got, want) {
						t.Errorf("%s: replay diverged from recording:\n--- replay\n%s--- recorded\n%s",
							sc.Label, got, want)
					}
				}
			})
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
		binary.LittleEndian.PutUint32(out[p-4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		patched++
	}
	if patched == 0 {
		t.Fatal("trace has no scenario header to patch")
	}
	return out
}

// Recording must not perturb results: the same experiment with and
// without a Record collector renders byte-identical figures.
func TestRecordingDoesNotPerturbFigures(t *testing.T) {
	opt := Options{Scale: Tiny, Seed: 1, Jobs: 4}
	fig, err := Fig4(opt)
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	fig.Render(&plain)
	_, recorded := fig4TraceAndReport(t, 4, "")
	if !bytes.Equal(plain.Bytes(), recorded) {
		t.Error("recording changed the rendered figure")
	}
}

// Failed cells, erroring or panicking, leave no scenario behind; a
// successful sibling keeps its own.
func TestRecordSkipsFailedAttempts(t *testing.T) {
	col := trace.NewCollector()
	cells := []cell{
		okCell("ok", 1),
		failCell("dead", errors.New("hard failure")),
		testCell("crashed", func() (workloads.Result, error) { panic("simulated crash") }),
	}
	if _, err := runCells(Options{Jobs: 2, Record: col}, cells); err == nil {
		t.Fatal("expected the failed cells' errors")
	}
	tr := col.Trace()
	if len(tr.Scenarios) != 1 {
		t.Fatalf("collected %d scenarios, want 1 (the ok cell's only)", len(tr.Scenarios))
	}
	if tr.Scenarios[0].Label != "ok" {
		t.Errorf("collected %q, want ok", tr.Scenarios[0].Label)
	}
}
