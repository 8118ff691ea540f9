package affinityd

import (
	"strings"
	"testing"

	"affinityalloc/internal/trace"
)

// requireMetadataOnly checks that every machine of srv holds placement
// metadata and no simulated payload, both directly and as /metricsz
// reports it.
func requireMetadataOnly(t *testing.T, srv *Server, when string) {
	t.Helper()
	machines := *srv.machines.Load()
	if len(machines) == 0 {
		t.Fatalf("%s: no machines", when)
	}
	for id, m := range machines {
		if got := m.sys.Space.BackedBytes(); got != 0 {
			t.Errorf("%s: machine %s materialised %d bytes of simulated memory", when, id, got)
		}
	}
	doc := srv.MetricsDocument()
	if err := doc.Validate(); err != nil {
		t.Errorf("%s: metrics document invalid: %v", when, err)
	}
	cells := 0
	for _, c := range doc.Cells {
		if !strings.HasPrefix(c.Label, "machine/") {
			continue
		}
		cells++
		if got, ok := c.Scalars["space_backed_bytes"]; !ok || got != 0 {
			t.Errorf("%s: cell %s space_backed_bytes = %d (present %v), want 0", when, c.Label, got, ok)
		}
		if c.Scalars["pool_used_bytes"] == 0 {
			t.Errorf("%s: cell %s pool_used_bytes = 0 after a placement stream", when, c.Label)
		}
	}
	if cells != len(machines) {
		t.Errorf("%s: %d machine cells for %d machines", when, cells, len(machines))
	}
}

// TestPlacementBacksNoSimulatedMemory pins "a placement costs what a
// placement is worth": 4 096 requests served over the wire, the recovery
// of their journal, and the library replay of the same stream all decide
// addresses without materialising one simulated byte.
func TestPlacementBacksNoSimulatedMemory(t *testing.T) {
	const seed, ops, batch = 7, 4096, 16
	spec := MachineSpec{Seed: seed}

	dir := t.TempDir()
	srv, client, stop := newJournaledServer(t, dir, Options{})
	reg, err := client.Register(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := countOK(drive(t, client, reg.MachineID, NewStreamGen(seed, 0), ops/batch, batch)); n == 0 {
		t.Fatal("no request placed")
	}
	requireMetadataOnly(t, srv, "served")
	stop()

	recovered, _, stopRecovered := newJournaledServer(t, dir, Options{})
	defer stopRecovered()
	if _, err := recovered.Recover(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	requireMetadataOnly(t, recovered, "recovered")

	sc, err := ScenarioFromStream(spec, seed, 0, ops, batch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.Replay(sc, trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.System.Space.BackedBytes(); got != 0 {
		t.Errorf("trace.Replay materialised %d bytes of simulated memory", got)
	}
}
