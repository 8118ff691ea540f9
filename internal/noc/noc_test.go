package noc

import (
	"testing"

	"affinityalloc/internal/topo"
)

func newNet(t *testing.T) *Network {
	t.Helper()
	return New(topo.MustMesh(8, 8, topo.RowMajor), DefaultConfig())
}

func TestFlitsRounding(t *testing.T) {
	n := newNet(t)
	cases := []struct{ payload, want int }{
		{0, 1}, {8, 1}, {24, 1}, {25, 2}, {64, 3}, {56, 2},
	}
	for _, c := range cases {
		if got := n.Flits(c.payload); got != c.want {
			t.Errorf("Flits(%d) = %d, want %d", c.payload, got, c.want)
		}
	}
}

func TestLocalMessageCostsNoTraffic(t *testing.T) {
	n := newNet(t)
	arrive := n.Send(100, 5, 5, Data, 64)
	if arrive != 101 {
		t.Errorf("local arrival %d, want 101", arrive)
	}
	if n.TotalFlitHops() != 0 {
		t.Errorf("local message produced %d flit-hops", n.TotalFlitHops())
	}
	if n.Stats()[Data].Messages != 1 {
		t.Error("local message not counted")
	}
}

func TestSendLatencyScalesWithDistance(t *testing.T) {
	n := newNet(t)
	near := n.Send(0, 0, 1, Data, 64)
	far := n.Send(0, 0, 63, Data, 64)
	if far <= near {
		t.Errorf("far arrival %d <= near arrival %d", far, near)
	}
	// 14 hops at 2 cycles + 2 tail flits = 30.
	if far != 30 {
		t.Errorf("corner-to-corner 64B arrival %d, want 30", far)
	}
}

func TestTrafficAccountingByClass(t *testing.T) {
	n := newNet(t)
	n.Send(0, 0, 7, Data, 64)    // 3 flits x 7 hops = 21
	n.Send(0, 0, 7, Control, 8)  // 1 flit x 7 hops = 7
	n.Send(0, 0, 7, Offload, 24) // 1 flit x 7 hops = 7
	st := n.Stats()
	if st[Data].FlitHops != 21 {
		t.Errorf("data flit-hops %d, want 21", st[Data].FlitHops)
	}
	if st[Control].FlitHops != 7 {
		t.Errorf("control flit-hops %d, want 7", st[Control].FlitHops)
	}
	if st[Offload].FlitHops != 7 {
		t.Errorf("offload flit-hops %d, want 7", st[Offload].FlitHops)
	}
	if n.TotalFlitHops() != 35 {
		t.Errorf("total %d, want 35", n.TotalFlitHops())
	}
}

func TestLinkContentionDelays(t *testing.T) {
	n := newNet(t)
	// Hammer one link with many messages at the same cycle.
	var last uint64
	for i := 0; i < 64; i++ {
		last = uint64(n.Send(0, 0, 1, Data, 64))
	}
	// 64 messages x 3 flits over a 1-flit/cycle link ≈ 192 cycles.
	if last < 150 {
		t.Errorf("64 contended sends finished at %d, want >= 150", last)
	}
	// An uncontended path is unaffected (backfilling).
	if clean := n.Send(0, 32, 33, Data, 64); clean > 10 {
		t.Errorf("uncontended send delayed to %d", clean)
	}
}

// TestZeroConfigSelectsDefaults: a fully zero Config still means "the
// Table-2 network".
func TestZeroConfigSelectsDefaults(t *testing.T) {
	n := New(topo.MustMesh(4, 4, topo.RowMajor), Config{})
	if n.cfg != DefaultConfig() {
		t.Errorf("zero config built %+v, want DefaultConfig", n.cfg)
	}
}

// TestPartialConfigKeepsCallerFields: New used to replace the entire
// config with DefaultConfig whenever LinkBytes was unset, silently
// discarding a caller's explicit PerHopCycles or ModelConflict=false.
// Now only the zero-valued fields are defaulted.
func TestPartialConfigKeepsCallerFields(t *testing.T) {
	n := New(topo.MustMesh(4, 4, topo.RowMajor), Config{PerHopCycles: 7, ModelConflict: false})
	if n.cfg.PerHopCycles != 7 {
		t.Errorf("PerHopCycles = %d, want caller's 7", n.cfg.PerHopCycles)
	}
	if n.cfg.ModelConflict {
		t.Error("explicit ModelConflict=false was discarded")
	}
	def := DefaultConfig()
	if n.cfg.LinkBytes != def.LinkBytes || n.cfg.LocalCycles != def.LocalCycles || n.cfg.HeaderBytes != def.HeaderBytes {
		t.Errorf("unset fields not defaulted: %+v", n.cfg)
	}
	// Behavior check: 64B payload = 3 flits, 1 hop, no conflict model:
	// 1 hop x 7 cycles + 2 tail flits = 9.
	if got := n.Send(0, 0, 1, Data, 64); got != 9 {
		t.Errorf("1-hop send arrived at %d, want 9", got)
	}
}
