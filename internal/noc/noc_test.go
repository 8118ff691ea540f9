package noc

import (
	"math/rand"
	"slices"
	"testing"

	"affinityalloc/internal/engine"
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

// TestNewRejectsOddLinkWidth: a link width that is not a power of two
// would need a division per message; sys.Config.Validate refuses one,
// so New panics on it as a programmer error.
func TestNewRejectsOddLinkWidth(t *testing.T) {
	for _, width := range []int{3, 24, 48} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with %d-byte links did not panic", width)
				}
			}()
			New(topo.MustMesh(4, 4, topo.RowMajor), Config{LinkBytes: width})
		}()
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

// refNetwork is Send as it was before the route walk: it lists the X-Y
// route, flattens each link with LinkIndex, and keeps one heap-allocated
// server per link. It is the oracle for the clean-machine path.
type refNetwork struct {
	mesh      *topo.Mesh
	cfg       Config
	linkSrv   []*engine.Server
	linkFlits []uint64
	classes   [NumClasses]ClassStats
	route     []topo.Link
}

func newRefNetwork(mesh *topo.Mesh, cfg Config) *refNetwork {
	cfg = cfg.withDefaults()
	n := &refNetwork{
		mesh:      mesh,
		cfg:       cfg,
		linkSrv:   make([]*engine.Server, mesh.NumLinks()),
		linkFlits: make([]uint64, mesh.NumLinks()),
	}
	for i := range n.linkSrv {
		n.linkSrv[i] = engine.NewServer(1, 8, 4096)
	}
	return n
}

func (n *refNetwork) send(now engine.Time, from, to int, class Class, payloadBytes int) engine.Time {
	flits := max(1, (payloadBytes+n.cfg.HeaderBytes+n.cfg.LinkBytes-1)/n.cfg.LinkBytes)
	st := &n.classes[class]
	st.Messages++
	if from == to {
		return now + n.cfg.LocalCycles
	}
	hops := n.mesh.Hops(from, to)
	st.Flits += uint64(flits)
	st.FlitHops += uint64(flits) * uint64(hops)
	if !n.cfg.ModelConflict {
		return now + engine.Time(hops)*n.cfg.PerHopCycles + engine.Time(flits-1)
	}
	n.route = n.mesh.Route(n.route[:0], from, to)
	arrive := now
	for _, l := range n.route {
		idx := n.mesh.LinkIndex(l)
		depart := n.linkSrv[idx].Reserve(arrive, flits)
		n.linkFlits[idx] += uint64(flits)
		arrive = depart + n.cfg.PerHopCycles
	}
	return arrive + engine.Time(flits-1)
}

func (n *refNetwork) totalLinkFlits() uint64 {
	var flits uint64
	for _, f := range n.linkFlits {
		flits += f
	}
	return flits
}

// TestSendMatchesReference drives Send and refNetwork with the same
// seeded (now, from, to, class, bytes) streams — uniform pairs, a hot
// pair that backs its links up, out-of-order injection times and jumps
// past a link window — on a row-major and a quadrant-numbered 8×8 mesh
// and a non-square 4×2 one. Every arrival cycle, the class counters,
// the link-flit total and the per-link flit series must agree.
func TestSendMatchesReference(t *testing.T) {
	meshes := []*topo.Mesh{
		topo.MustMesh(8, 8, topo.RowMajor),
		topo.MustMesh(8, 8, topo.Quadrant),
		topo.MustMesh(4, 2, topo.RowMajor),
	}
	configs := []Config{DefaultConfig(), {PerHopCycles: 3, LinkBytes: 16, ModelConflict: true}, {LinkBytes: 8, HeaderBytes: 4, ModelConflict: true}, {PerHopCycles: 2}}
	payloads := []int{0, 8, 24, 56, 64, 72, 200}
	for mi, mesh := range meshes {
		for ci, cfg := range configs {
			rng := rand.New(rand.NewSource(int64(31*mi + ci)))
			net, ref := New(mesh, cfg), newRefNetwork(mesh, cfg)
			banks := mesh.Banks()
			hotFrom, hotTo := 0, banks-1
			var cursor engine.Time
			for op := 0; op < 20000; op++ {
				from, to := rng.Intn(banks), rng.Intn(banks)
				if rng.Intn(3) == 0 {
					from, to = hotFrom, hotTo
				}
				now := cursor
				switch r := rng.Intn(100); {
				case r < 60:
					cursor += engine.Time(rng.Intn(4))
					now = cursor
				case r < 90: // injected behind the cursor
					now = cursor - min(cursor, engine.Time(rng.Intn(400)))
				case r < 99:
					now = cursor + engine.Time(rng.Intn(2000))
				default: // past a whole link window
					cursor += 8 * 4096 * engine.Time(1+rng.Intn(2))
					now = cursor
				}
				class := Class(rng.Intn(int(NumClasses)))
				bytes := payloads[rng.Intn(len(payloads))]
				got, want := net.Send(now, from, to, class, bytes), ref.send(now, from, to, class, bytes)
				if got != want {
					t.Fatalf("mesh %d config %d op %d: Send(%d, %d→%d, %v, %dB) arrived at %d, reference %d",
						mi, ci, op, now, from, to, class, bytes, got, want)
				}
			}
			if net.Stats() != ref.classes {
				t.Errorf("mesh %d config %d: class stats %+v, reference %+v", mi, ci, net.Stats(), ref.classes)
			}
			if got, want := net.TotalLinkFlits(), ref.totalLinkFlits(); got != want {
				t.Errorf("mesh %d config %d: %d link flits, reference %d", mi, ci, got, want)
			}
			if !slices.Equal(net.linkFlits, ref.linkFlits) {
				t.Errorf("mesh %d config %d: per-link flit series differs from the reference", mi, ci)
			}
			if cfg.ModelConflict && net.TotalLinkFlits() == 0 {
				t.Errorf("mesh %d config %d: no link traffic; the walk went unexercised", mi, ci)
			}
			net.Release()
		}
	}
}

// TestSendAllocatesNothing pins that a clean-machine Send, contended
// links and window slides included, allocates nothing once each link
// has its window.
func TestSendAllocatesNothing(t *testing.T) {
	n := newNet(t)
	defer n.Release()
	var now engine.Time
	allocs := testing.AllocsPerRun(1000, func() {
		now += 50 // 1 000 rounds span more than a link window
		n.Send(now, 0, 63, Data, 64)
		n.Send(now, 63, 0, Control, 8)
		n.Send(now/2, 7, 56, Offload, 200)
	})
	if allocs != 0 {
		t.Errorf("Send allocated %.1f times per three calls, want 0", allocs)
	}
}
