package sys_test

import (
	"encoding/json"
	"slices"
	"testing"

	"affinityalloc/internal/sys"
	"affinityalloc/internal/workloads"
)

// TestCollectOnlyObserves pins that reading telemetry never changes
// machine state: on a finished system, a second Collect at the same
// finish cycle returns a byte-identical metrics document, and the raw
// per-link flit and per-bank busy counters are the same before, between
// and after the two reads. The workload's own Collect is a third read
// and must agree too.
func TestCollectOnlyObserves(t *testing.T) {
	// One affine workload (NoC link flits, bank and DRAM counters) and one
	// pointer workload (stream-engine remote ops and migrations) cover
	// every counter the metrics document reads.
	cases := []struct {
		name string
		w    workloads.Workload
		mode sys.Mode
	}{
		{"vecadd-affalloc", workloads.VecAdd{N: 1 << 14, ForceDelta: -1}, sys.AffAlloc},
		{"linklist-nearl3", workloads.LinkList{Lists: 16, Nodes: 64, Queries: 1}, sys.NearL3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sys.MustNew(sys.DefaultConfig())
			res, err := tc.w.Run(s, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			finish := res.Metrics.Cycles
			doc := func(m sys.Metrics) string {
				b, err := json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
			flits, busy := s.Net.TotalLinkFlits(), s.Mem.BankBusyCycles()
			if flits == 0 {
				t.Fatal("workload pushed no flits through any link; the check would be vacuous")
			}
			first := doc(s.Collect(finish))
			if f, b := s.Net.TotalLinkFlits(), s.Mem.BankBusyCycles(); f != flits || !slices.Equal(b, busy) {
				t.Errorf("first Collect changed counters: link flits %d -> %d, bank busy changed %v", flits, f, !slices.Equal(b, busy))
			}
			second := doc(s.Collect(finish))
			if first != second {
				t.Errorf("second Collect differs from the first:\nfirst:  %.400s\nsecond: %.400s", first, second)
			}
			if own := doc(res.Metrics); own != first {
				t.Errorf("workload's metrics differ from a later Collect:\nworkload: %.400s\nCollect:  %.400s", own, first)
			}
			if f, b := s.Net.TotalLinkFlits(), s.Mem.BankBusyCycles(); f != flits || !slices.Equal(b, busy) {
				t.Errorf("second Collect changed counters: link flits %d -> %d, bank busy changed %v", flits, f, !slices.Equal(b, busy))
			}
		})
	}
}

// TestDeferredAccountingMatchesInline pins that the metrics document,
// assembled from the telemetry registry when the run is read, agrees with
// the counters the components update inline as the run goes: NoC traffic
// per class, flit-hops and link flits, L3 accesses and misses, and the
// stream engine's remote ops and migrations. A key published from the
// wrong counter, or a count the registry drops, shows up as a mismatch.
func TestDeferredAccountingMatchesInline(t *testing.T) {
	cases := []struct {
		name string
		w    workloads.Workload
		mode sys.Mode
	}{
		{"vecadd-affalloc", workloads.VecAdd{N: 1 << 14, ForceDelta: -1}, sys.AffAlloc},
		{"linklist-nearl3", workloads.LinkList{Lists: 16, Nodes: 64, Queries: 1}, sys.NearL3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sys.MustNew(sys.DefaultConfig())
			res, err := tc.w.Run(s, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			if m.FlitHops == 0 || m.L3Accesses == 0 {
				t.Fatalf("workload left the counters empty (flit-hops %d, L3 accesses %d); the check would be vacuous",
					m.FlitHops, m.L3Accesses)
			}
			if m.Traffic != s.Net.Stats() {
				t.Errorf("traffic by class %+v, network counted %+v", m.Traffic, s.Net.Stats())
			}
			if got := s.Net.TotalFlitHops(); m.FlitHops != got {
				t.Errorf("flit-hops %d, network counted %d", m.FlitHops, got)
			}
			if got := s.Net.TotalLinkFlits(); m.LinkFlits != got {
				t.Errorf("link flits %d, network counted %d", m.LinkFlits, got)
			}
			acc, _, miss := s.Mem.TotalL3Stats()
			if m.L3Accesses != acc || m.L3Misses != miss {
				t.Errorf("L3 accesses/misses %d/%d, banks counted %d/%d", m.L3Accesses, m.L3Misses, acc, miss)
			}
			if got := m.Detail.Scalar("se_remote_ops"); got != s.SE.RemoteOps {
				t.Errorf("se_remote_ops %d, stream engine counted %d", got, s.SE.RemoteOps)
			}
			if got := m.Detail.Scalar("se_migrations"); got != s.SE.Migrations {
				t.Errorf("se_migrations %d, stream engine counted %d", got, s.SE.Migrations)
			}
		})
	}
}
