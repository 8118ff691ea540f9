package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRegistryScalars(t *testing.T) {
	r := NewRegistry()
	r.Set("cycles", 100)
	r.Set("cycles", 200)
	s := r.Snapshot()
	if s.Scalar("cycles") != 200 {
		t.Errorf("cycles = %d, want 200 (last write wins)", s.Scalar("cycles"))
	}
	if s.Scalar("absent") != 0 {
		t.Error("absent scalar should read 0")
	}
}

func TestSetSeriesWritesTotal(t *testing.T) {
	r := NewRegistry()
	vals := []uint64{1, 2, 3, 4}
	r.SetSeries("l3_bank_accesses", vals)
	vals[0] = 99 // the registry must have copied
	s := r.Snapshot()
	if got := s.SeriesOf("l3_bank_accesses"); got[0] != 1 {
		t.Errorf("series[0] = %d; SetSeries must copy its input", got[0])
	}
	if got := s.Scalar("l3_bank_accesses_total"); got != 10 {
		t.Errorf("derived total = %d, want 10", got)
	}
}

func TestNilSnapshotAccessors(t *testing.T) {
	var s *Snapshot
	if s.Scalar("x") != 0 || s.SeriesOf("x") != nil {
		t.Error("nil snapshot accessors must be safe")
	}
}

// TestSnapshotJSONDeterministic: two marshals of the same snapshot are
// byte-identical (map keys sort), the property the metrics document
// byte-identity guarantee rests on.
func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, k := range []string{"zeta", "alpha", "mid", "beta"} {
		r.Set(k, 1)
	}
	r.SetSeries("series_b", []uint64{1, 2})
	r.SetSeries("series_a", []uint64{3})
	a, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(r.Snapshot())
	if !bytes.Equal(a, b) {
		t.Error("snapshot JSON is not deterministic")
	}
	var decoded Snapshot
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Scalars["series_a_total"] != 3 {
		t.Error("round-trip lost the derived total")
	}
}

func docWithCell() *Document {
	r := NewRegistry()
	r.Set("cycles", 42)
	r.SetSeries("l3_bank_accesses", []uint64{5, 7})
	d := &Document{SchemaVersion: SchemaVersion, Experiment: "test", Scale: "tiny", Seed: 1}
	d.AddCell("w/mode", r.Snapshot())
	return d
}

func TestDocumentRoundTrip(t *testing.T) {
	d := docWithCell()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseDocument(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Cells[0].Label != "w/mode" || got.Cells[0].Scalars["cycles"] != 42 {
		t.Errorf("round trip lost cell data: %+v", got.Cells[0])
	}
}

func TestDocumentValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Document)
	}{
		{"schema version", func(d *Document) { d.SchemaVersion = 99 }},
		{"no cells", func(d *Document) { d.Cells = nil }},
		{"empty label", func(d *Document) { d.Cells[0].Label = "" }},
		{"missing cycles", func(d *Document) { delete(d.Cells[0].Scalars, "cycles") }},
		{"series/total mismatch", func(d *Document) { d.Cells[0].Scalars["l3_bank_accesses_total"] = 1 }},
		{"empty series", func(d *Document) { d.Cells[0].Series["empty"] = nil }},
	}
	for _, tc := range cases {
		d := docWithCell()
		tc.mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken document", tc.name)
		}
	}
	if err := docWithCell().Validate(); err != nil {
		t.Errorf("valid document rejected: %v", err)
	}
}
