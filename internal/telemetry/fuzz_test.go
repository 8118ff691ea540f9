package telemetry

import (
	"bytes"
	"testing"
)

// FuzzParseDocument throws arbitrary bytes at the metrics-document
// decoder. Two properties must hold: the parser never panics, and any
// document it accepts survives a WriteJSON round trip (re-encoding an
// accepted document re-parses and re-validates to the same bytes).
func FuzzParseDocument(f *testing.F) {
	// Seed corpus: a well-formed document (built by the real encoder so
	// the corpus tracks the schema), then targeted mutations of it.
	valid := func() []byte {
		d := &Document{SchemaVersion: SchemaVersion, Experiment: "fig4", Scale: "tiny", Seed: 1}
		r := NewRegistry()
		r.Set("cycles", 100)
		r.Set("flit_hops", 7)
		d.AddCell("vecadd/In-Core", r.Snapshot())
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema_version":1,"seed":0,"cells":[]}`))
	f.Add([]byte(`{"schema_version":99,"seed":0,"cells":[{"label":"x","scalars":{"cycles":1}}]}`))
	f.Add([]byte(`{"schema_version":1,"seed":0,"cells":[{"label":"","scalars":{"cycles":1}}]}`))
	f.Add([]byte(`{"schema_version":1,"seed":0,"cells":[{"label":"x","scalars":{}}]}`))
	f.Add([]byte(`{"schema_version":1,"seed":0,"cells":[{"label":"x","scalars":{"cycles":1,"q_total":5},"series":{"q":[2,2]}}]}`))
	f.Add([]byte(`{"schema_version":1,"seed":`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDocument(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted document does not re-encode: %v", err)
		}
		d2, err := ParseDocument(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded document rejected: %v\n%s", err, buf.Bytes())
		}
		var buf2 bytes.Buffer
		if err := d2.WriteJSON(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("encode/parse/encode is not a fixed point:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
		}
	})
}
