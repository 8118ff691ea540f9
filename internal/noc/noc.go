// Package noc models the on-chip mesh interconnect: X-Y wormhole routing
// over 32-byte links, per-link serialization and contention, and traffic
// accounting split into the paper's three message classes (Data, Control,
// Offload). Every figure's "NoC Hops" bars come from this package's
// counters.
package noc

import (
	"fmt"
	"math/bits"

	"affinityalloc/internal/engine"
	"affinityalloc/internal/faults"
	"affinityalloc/internal/telemetry"
	"affinityalloc/internal/topo"
)

// Class categorizes a message for traffic accounting, matching the
// stacked-bar breakdown in Figs 4, 6, 12, 13 and 20.
type Class int

const (
	// Data carries operands or cache lines (element forwarding, line
	// fills, writebacks).
	Data Class = iota
	// Control carries requests, acknowledgements, indirect-access
	// requests, credits, and coherence traffic.
	Control
	// Offload carries stream configuration and stream migration state.
	Offload

	// NumClasses is the number of message classes.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case Data:
		return "data"
	case Control:
		return "control"
	case Offload:
		return "offload"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Config parameterizes the network. Defaults mirror Table 2.
type Config struct {
	LinkBytes     int         // flit width (Table 2: 32B)
	PerHopCycles  engine.Time // router + link traversal per hop
	LocalCycles   engine.Time // latency of a same-tile "message"
	HeaderBytes   int         // per-message header added to payload
	ModelConflict bool        // model per-link serialization/contention
	// Faults, when set, degrades links: dead links force detour routes
	// and lossy links pay retransmits. A pointer keeps Config comparable
	// for the all-zero default check.
	Faults *faults.Injector
}

// DefaultConfig returns Table 2's NoC parameters.
func DefaultConfig() Config {
	return Config{
		LinkBytes:     32,
		PerHopCycles:  2, // 5-stage router pipelined + 1-cycle link, steady state
		LocalCycles:   1,
		HeaderBytes:   8,
		ModelConflict: true,
	}
}

// ClassStats aggregates traffic for one message class. The JSON tags are
// the stable snake_case metrics schema.
type ClassStats struct {
	Messages uint64 `json:"messages"`
	Flits    uint64 `json:"flits"`
	// FlitHops is flits × hops summed over messages — the traffic
	// measure behind the paper's "NoC Hops" bars.
	FlitHops uint64 `json:"flit_hops"`
}

// Network is the mesh interconnect model. It is not safe for concurrent
// use.
type Network struct {
	mesh *topo.Mesh
	cfg  Config
	// linkLog is log2 of cfg.LinkBytes, so Flits shifts instead of
	// dividing.
	linkLog uint

	linkSrv   []engine.Server // per-link flit schedule, by dense link index
	linkFlits []uint64        // flits ever pushed through each directed link

	classes [NumClasses]ClassStats
	// detour is the scratch route of the degraded-link path, reused
	// across sends; a clean machine walks its X-Y route arithmetically.
	detour []topo.Link
}

// withDefaults fills unset fields. A fully zero Config selects
// DefaultConfig wholesale (the conventional "just give me Table 2"
// request); otherwise only the zero-valued numeric fields are
// defaulted individually, so a partially-specified config keeps its
// explicit settings — a custom PerHopCycles or ModelConflict=false is
// preserved rather than silently discarded.
func (cfg Config) withDefaults() Config {
	// The all-zero check ignores Faults: attaching an injector to an
	// otherwise-default config must not demote it to the field-by-field
	// path (which would lose ModelConflict's default of true).
	bare := cfg
	bare.Faults = nil
	if bare == (Config{}) {
		def := DefaultConfig()
		def.Faults = cfg.Faults
		return def
	}
	def := DefaultConfig()
	if cfg.LinkBytes <= 0 {
		cfg.LinkBytes = def.LinkBytes
	}
	if cfg.PerHopCycles <= 0 {
		cfg.PerHopCycles = def.PerHopCycles
	}
	if cfg.LocalCycles <= 0 {
		cfg.LocalCycles = def.LocalCycles
	}
	if cfg.HeaderBytes <= 0 {
		cfg.HeaderBytes = def.HeaderBytes
	}
	return cfg
}

// New builds a network over the given mesh. Zero-valued cfg fields take
// Table-2 defaults; see withDefaults. The link width must be a power of
// two (sys.Config.Validate refuses any other), so Flits can shift; any
// other width is a programmer error and panics.
func New(mesh *topo.Mesh, cfg Config) *Network {
	cfg = cfg.withDefaults()
	if cfg.LinkBytes&(cfg.LinkBytes-1) != 0 {
		panic(fmt.Sprintf("noc: a %d-byte link is not a power of two (programmer error)", cfg.LinkBytes))
	}
	n := &Network{
		mesh:      mesh,
		cfg:       cfg,
		linkLog:   uint(bits.TrailingZeros(uint(cfg.LinkBytes))),
		linkSrv:   make([]engine.Server, mesh.NumLinks()),
		linkFlits: make([]uint64, mesh.NumLinks()),
	}
	for i := range n.linkSrv {
		n.linkSrv[i].Init(1, 8, 4096)
	}
	return n
}

// Mesh returns the underlying topology.
func (n *Network) Mesh() *topo.Mesh { return n.mesh }

// PerHopCycles reports the resolved router+link traversal latency — the
// minimum cost of any cross-tile hop.
func (n *Network) PerHopCycles() engine.Time { return n.cfg.PerHopCycles }

// Flits returns the number of flits a message with the given payload
// occupies, including the header flit share.
func (n *Network) Flits(payloadBytes int) int {
	return max((payloadBytes+n.cfg.HeaderBytes+n.cfg.LinkBytes-1)>>n.linkLog, 1)
}

// Send models one message injected at cycle now, travelling from bank
// `from` to bank `to`, and returns its arrival cycle at the destination.
// Traffic counters are charged to the given class. Same-tile messages
// cost LocalCycles and no link traffic.
func (n *Network) Send(now engine.Time, from, to int, class Class, payloadBytes int) engine.Time {
	flits := n.Flits(payloadBytes)
	st := &n.classes[class]
	st.Messages++
	if from == to {
		return now + n.cfg.LocalCycles
	}
	st.Flits += uint64(flits)

	// Fault path: dead links force detours off the X-Y route, lossy links
	// pay retransmits. Gated so clean configs (and faulted configs whose
	// spec leaves the links alone) keep the arithmetic route walk.
	if inj := n.cfg.Faults; inj != nil && inj.DegradedLinks() {
		return n.sendDegraded(now, from, to, st, flits)
	}

	x0, xStep, dx, y0, yStep, dy := n.mesh.XYLegs(from, to)
	st.FlitHops += uint64(flits) * uint64(dx+dy)

	if !n.cfg.ModelConflict {
		return now + engine.Time(dx+dy)*n.cfg.PerHopCycles + engine.Time(flits-1)
	}
	arrive := n.walk(now, x0, xStep, dx, flits)
	arrive = n.walk(arrive, y0, yStep, dy, flits)
	return arrive + engine.Time(flits-1)
}

// walk pushes flits through hops links, the first at dense index link
// and each next one step further on, and returns the cycle the head
// flit leaves the last of them.
func (n *Network) walk(arrive engine.Time, link, step, hops, flits int) engine.Time {
	for ; hops > 0; hops-- {
		arrive = n.linkSrv[link].Reserve(arrive, flits) + n.cfg.PerHopCycles
		n.linkFlits[link] += uint64(flits)
		link += step
	}
	return arrive
}

// sendDegraded is Send on a machine whose fault spec touches links: the
// route comes from the injector, detouring round dead links, and lossy
// links add retransmitted flits and their delay.
func (n *Network) sendDegraded(now engine.Time, from, to int, st *ClassStats, flits int) engine.Time {
	inj := n.cfg.Faults
	hops := n.mesh.Hops(from, to)
	var detoured bool
	n.detour, detoured = inj.Route(n.detour[:0], from, to)
	if detoured {
		inj.NoteDetour(now, len(n.detour)-hops)
		hops = len(n.detour)
	}
	st.FlitHops += uint64(flits) * uint64(hops)

	if !n.cfg.ModelConflict {
		return now + engine.Time(hops)*n.cfg.PerHopCycles + engine.Time(flits-1)
	}

	arrive := now
	for _, l := range n.detour {
		idx := n.mesh.LinkIndex(l)
		extra, retryDelay := inj.LinkRetransmits(arrive, idx, flits)
		units := flits + extra
		depart := n.linkSrv[idx].Reserve(arrive, units)
		n.linkFlits[idx] += uint64(units)
		arrive = depart + n.cfg.PerHopCycles + retryDelay
	}
	return arrive + engine.Time(flits-1)
}

// Stats returns the per-class traffic counters.
func (n *Network) Stats() [NumClasses]ClassStats { return n.classes }

// TotalFlitHops sums flit-hops across all classes.
func (n *Network) TotalFlitHops() uint64 {
	var total uint64
	for _, c := range n.classes {
		total += c.FlitHops
	}
	return total
}

// TotalLinkFlits sums flits over every directed link — the numerator of
// the NoC utilization sys.Metrics reports. Zero when ModelConflict is off (no per-link accounting).
func (n *Network) TotalLinkFlits() uint64 {
	var flits uint64
	for _, f := range n.linkFlits {
		flits += f
	}
	return flits
}

// PublishTelemetry publishes per-class traffic scalars and the per-link
// flit heatmap into the registry.
func (n *Network) PublishTelemetry(r *telemetry.Registry) {
	for class, st := range n.classes {
		name := Class(class).String()
		r.Set("noc_"+name+"_messages", st.Messages)
		r.Set("noc_"+name+"_flits", st.Flits)
		r.Set("noc_"+name+"_flit_hops", st.FlitHops)
	}
	r.Set("noc_flit_hops", n.TotalFlitHops())
	r.Set("noc_links", uint64(n.mesh.NumLinks()))
	r.SetSeries("noc_link_flits", n.linkFlits)
}

// Release hands the link windows back for the next network to reuse.
// The network must not send afterwards; its counters stay readable.
// Releasing twice does nothing.
func (n *Network) Release() {
	for i := range n.linkSrv {
		n.linkSrv[i].Release()
	}
}
