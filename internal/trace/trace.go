// Package trace records, replays, and composes allocation/access
// scenarios — the afftrace/v1 format.
//
// A trace is a sequence of scenarios. Each scenario carries the machine
// configuration it was recorded under (mesh, seed, policy, faults,
// mode) and an ordered event stream: pool opens, allocations with their
// affinity-hint edges, frees, access summaries (per-structure chunk
// touch streams), and stream-issue summaries (offloads, migrations).
//
// Events reference earlier allocations *symbolically*: an allocation
// event's ID is its 1-based position among the tenant's allocation
// events, and affinity hints are (ID, element/byte offset) pairs rather
// than raw addresses. That makes a trace relocatable — replay re-drives
// the same allocator entry points on a fresh system and resolves edges
// against the replayed bases, so a recorded scenario can be replayed
// under a different mode, policy or fault spec, or
// composed with other tenants into a colocation scenario.
//
// The recorder observes only *outcomes* of completed calls (it is
// attached via observer hooks that read nothing back), so a recording
// run is byte-identical to a direct run; and replay re-drives exactly
// the observed outermost calls, so the allocator — including its RNG
// draw sequence — walks the identical state trajectory. Those two
// properties are the replay differential gate pinning this package.
//
// One encoding carries a trace: a length-framed, CRC-checked binary
// stream (binary.go), fuzzed, and pinned by the committed example
// trace in testdata. ReadFile and WriteFile use it whatever the path.
// Its payload codec (codec.go: Writer, Reader, Checksum) is exported
// because affinityd's write-ahead journal frames its records with the
// same codec.
package trace

import (
	"fmt"
	"sort"

	"affinityalloc/internal/core"
	"affinityalloc/internal/faults"
	"affinityalloc/internal/sys"
)

// Version is the format identifier written into every trace.
const Version = "afftrace/v1"

// Event kinds.
const (
	KindOpenPool = "open_pool"
	KindAlloc    = "alloc"
	KindFree     = "free"
	KindAccess   = "access"
	KindPreload  = "preload"
	KindStream   = "stream"
)

// Allocation ops (Event.Op for KindAlloc events), matching the public
// core.Runtime entry points.
const (
	OpAffine     = "affine"      // AllocAffine
	OpAffineBank = "affine_bank" // AllocAffineAtBank
	OpNear       = "near"        // AllocNear
	OpNearBank   = "near_bank"   // AllocAtBank
	OpBase       = "base"        // AllocBase
)

// Ref is a symbolic affinity edge: a pointer into an earlier allocation
// of the same tenant. Ref is the 1-based allocation-event ID (0 means
// the hint did not land in any live recorded allocation and Raw holds
// the original address verbatim). Elem, when >= 0, addresses element
// Elem of an affine target (the wire-convertible form); otherwise Off
// is a byte offset from the target's base.
type Ref struct {
	Ref  int64
	Elem int64
	Off  int64
	Raw  uint64
}

// Touch is one chunk's access count within an access-summary event.
type Touch struct {
	Chunk  int64
	Reads  uint32
	Writes uint32
}

// Flow is one aggregated stream-issue edge (offload config packets from
// a core tile to a first bank, or stream-state migrations bank→bank).
type Flow struct {
	From int
	To   int
	N    uint32
}

// Event is one trace record. Kind selects which fields are meaningful;
// unused fields stay at their zero value, and the encoding writes only
// the fields of the event's kind.
type Event struct {
	Kind string
	// Tenant tags composed scenarios; single-tenant recordings use 0.
	Tenant int

	// KindOpenPool.
	Interleave int

	// KindAlloc. The event's allocation ID is implicit: the 1-based
	// count of KindAlloc events of the same tenant up to and including
	// this one. Mode, when set, overrides the scenario mode for this
	// allocation (recorded tenant streams mix modes per request).
	Op       string
	Mode     string
	ElemSize int
	NumElem  int64
	AlignRef int64
	AlignRaw uint64
	AlignP   int
	AlignQ   int
	AlignX   int64
	Part     bool
	Size     int64
	Bank     int
	Affinity []Ref
	// Recorded outcome, kept for the record→replay placement identity
	// gate (replay recomputes these and byte-compares the dumps).
	Base       uint64
	ResIl      int
	Stride     int
	StartBank  int
	PageMapped bool
	Err        string

	// KindFree. Ref is the allocation-event ID being released; Raw holds
	// the original address when the free did not match a live recorded
	// allocation (replay re-drives it verbatim to reproduce the error).
	Ref int64
	Raw uint64

	// KindAccess: chunk-granular touch counts against allocation Ref
	// (0 = wild access; Chunk then holds an absolute line index).
	// KindPreload reuses Ref/Off/Size.
	Gran    int64
	Off     int64
	Touches []Touch

	// KindStream: aggregated offload and migration flows.
	Offloads []Flow
	Migs     []Flow
}

// Scenario is one recorded (or composed) run: the configuration it was
// captured under plus its ordered event stream.
type Scenario struct {
	Label string
	// Mode is the execution mode the scenario was recorded under
	// (sys.Mode spelling). Replay may override it.
	Mode string
	// Machine shape and determinism inputs, enough to rebuild an
	// equivalent sys.Config on top of sys.DefaultConfig.
	MeshW  int
	MeshH  int
	Seed   int64
	Policy string
	Faults string
	// Tenants names the interleaved tenants of a composed scenario;
	// empty means single-tenant (tenant 0 = Label).
	Tenants []string
	// Cycles is the recorded run's finish time (informational).
	Cycles uint64

	Events []Event
}

// Trace is a sequence of scenarios.
type Trace struct {
	Scenarios []*Scenario
}

// NumTenants returns the tenant count (>= 1).
func (s *Scenario) NumTenants() int {
	if len(s.Tenants) > 1 {
		return len(s.Tenants)
	}
	return 1
}

// TenantLabel names one tenant.
func (s *Scenario) TenantLabel(t int) string {
	if t < len(s.Tenants) {
		return s.Tenants[t]
	}
	if t == 0 {
		return s.Label
	}
	return fmt.Sprintf("tenant%d", t)
}

// AllocCount returns the number of allocation events per tenant — the
// ID namespace size the composer needs to offset churn-cycle refs.
func (s *Scenario) AllocCount(tenant int) int64 {
	var n int64
	for i := range s.Events {
		if s.Events[i].Tenant == tenant && s.Events[i].Kind == KindAlloc {
			n++
		}
	}
	return n
}

// ResolveMode is the scenario's default execution mode: its recorded
// Mode, or Aff-Alloc when none is recorded.
func (s *Scenario) ResolveMode() (sys.Mode, error) {
	if s.Mode == "" {
		return sys.AffAlloc, nil
	}
	return sys.ParseMode(s.Mode)
}

// ResolveMode is the mode an allocation event runs under when its
// scenario runs under def: the event's own Mode when set, def
// otherwise.
func (e *Event) ResolveMode(def sys.Mode) sys.Mode {
	if e.Mode != "" {
		if m, err := sys.ParseMode(e.Mode); err == nil {
			return m
		}
	}
	return def
}

// Config rebuilds a sys.Config equivalent to the one the scenario was
// recorded under: sys defaults with the scenario's recorded shape,
// seed, policy and faults applied, zero shape fields and empty specs
// keeping the defaults. It is also how affinityd builds a machine from
// a wire MachineSpec, which carries the same five fields.
func (s *Scenario) Config() (sys.Config, error) {
	cfg := sys.DefaultConfig()
	if s.MeshW > 0 {
		cfg.MeshW = s.MeshW
	}
	if s.MeshH > 0 {
		cfg.MeshH = s.MeshH
	}
	cfg.Seed = s.Seed
	if s.Policy != "" {
		p, err := core.ParsePolicy(s.Policy)
		if err != nil {
			return cfg, err
		}
		cfg.Policy = p
	}
	if s.Faults != "" {
		f, err := faults.Parse(s.Faults)
		if err != nil {
			return cfg, err
		}
		cfg.Faults = f
	}
	return cfg, nil
}

// Validate checks the structural invariants replay depends on: known
// event kinds and ops, refs that point at already-seen allocations of
// the same tenant, sane sizes, and int fields the binary encoding can
// carry, so every trace it accepts decodes back. Decoders call it so a
// fuzzer cannot construct a trace that panics replay.
func (t *Trace) Validate() error {
	for si, sc := range t.Scenarios {
		if err := sc.Validate(); err != nil {
			return fmt.Errorf("trace: scenario %d: %v", si, err)
		}
	}
	return nil
}

// Validate checks one scenario (see Trace.Validate).
func (s *Scenario) Validate() error {
	if _, err := s.ResolveMode(); err != nil {
		return err
	}
	if !nats(s.MeshW, s.MeshH) {
		return fmt.Errorf("mesh %dx%d out of range", s.MeshW, s.MeshH)
	}
	allocs := map[int]int64{} // tenant -> alloc events seen
	checkRef := func(tenant int, ref int64) error {
		if ref < 0 || ref > allocs[tenant] {
			return fmt.Errorf("ref %d out of range (tenant %d has %d allocs so far)", ref, tenant, allocs[tenant])
		}
		return nil
	}
	for ei := range s.Events {
		e := &s.Events[ei]
		if e.Tenant < 0 || e.Tenant >= maxTenants {
			return fmt.Errorf("event %d: tenant %d out of range", ei, e.Tenant)
		}
		switch e.Kind {
		case KindOpenPool:
			if !nats(e.Interleave) {
				return fmt.Errorf("event %d: interleave %d out of range", ei, e.Interleave)
			}
		case KindAlloc:
			if !nats(e.ElemSize, e.AlignP, e.AlignQ, e.Bank, e.ResIl, e.Stride, e.StartBank) {
				return fmt.Errorf("event %d: negative or oversized int field", ei)
			}
			switch e.Op {
			case OpAffine, OpAffineBank:
				if e.NumElem < 0 {
					return fmt.Errorf("event %d: negative affine spec", ei)
				}
				if err := checkRef(e.Tenant, e.AlignRef); err != nil {
					return fmt.Errorf("event %d: align: %v", ei, err)
				}
			case OpNear, OpNearBank, OpBase:
				if e.Size < 0 {
					return fmt.Errorf("event %d: negative size", ei)
				}
				for _, r := range e.Affinity {
					if err := checkRef(e.Tenant, r.Ref); err != nil {
						return fmt.Errorf("event %d: affinity: %v", ei, err)
					}
				}
			default:
				return fmt.Errorf("event %d: unknown alloc op %q", ei, e.Op)
			}
			if e.Mode != "" {
				if _, err := sys.ParseMode(e.Mode); err != nil {
					return fmt.Errorf("event %d: %v", ei, err)
				}
			}
			allocs[e.Tenant]++
		case KindFree:
			if err := checkRef(e.Tenant, e.Ref); err != nil {
				return fmt.Errorf("event %d: free: %v", ei, err)
			}
		case KindAccess:
			if e.Gran < 0 {
				return fmt.Errorf("event %d: negative gran", ei)
			}
			if err := checkRef(e.Tenant, e.Ref); err != nil {
				return fmt.Errorf("event %d: access: %v", ei, err)
			}
		case KindPreload:
			if e.Size < 0 || e.Off < 0 {
				return fmt.Errorf("event %d: negative preload extent", ei)
			}
			if err := checkRef(e.Tenant, e.Ref); err != nil {
				return fmt.Errorf("event %d: preload: %v", ei, err)
			}
		case KindStream:
			for _, fs := range [][]Flow{e.Offloads, e.Migs} {
				for _, f := range fs {
					if !nats(f.From, f.To) {
						return fmt.Errorf("event %d: flow %d->%d out of range", ei, f.From, f.To)
					}
				}
			}
		default:
			return fmt.Errorf("event %d: unknown kind %q", ei, e.Kind)
		}
	}
	return nil
}

// nats reports whether every v fits an int field of the binary
// encoding (Reader.Nat): 0 through math.MaxInt32.
func nats(vs ...int) bool {
	for _, v := range vs {
		if v < 0 || v > maxNat {
			return false
		}
	}
	return true
}

// maxTenants bounds the tenant namespace; it exists so a fuzzed trace
// cannot request unbounded per-tenant state.
const maxTenants = 1 << 16

// sortTouches orders a touch list canonically (by chunk index).
func sortTouches(ts []Touch) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Chunk < ts[j].Chunk })
}

// sortFlows orders a flow list canonically.
func sortFlows(fs []Flow) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].From != fs[j].From {
			return fs[i].From < fs[j].From
		}
		return fs[i].To < fs[j].To
	})
}
