package realloc

import (
	"affinityalloc/internal/cache"
	"affinityalloc/internal/core"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/telemetry"
	"affinityalloc/internal/topo"
)

// Counters are the realloc_* telemetry scalars.
type Counters struct {
	// Migrations counts applied balance migrations.
	Migrations uint64
	// KillRehomes counts emergency re-homes off dead banks.
	KillRehomes uint64
	// MovedBytes totals the migrated payload.
	MovedBytes uint64
	// MigrationCycles totals the modeled cycles from each migration's
	// start to its last line's landing.
	MigrationCycles uint64
	// Rejected counts planned candidates reverted by the cost/benefit
	// test.
	Rejected uint64
	// Epochs counts closed reconciliation epochs.
	Epochs uint64
}

// Applied is one applied migration, recorded for the convergence and
// no-ping-pong regression tests.
type Applied struct {
	Epoch  uint64 // 1-based epoch that planned the move
	Chunk  memsim.Addr
	From   int
	To     int
	Rehome bool
}

// granule is one tracked placement granule.
type granule struct {
	start memsim.Addr
	size  int
	bank  int     // home at the last epoch close
	count uint64  // accesses in the open epoch
	heat  float64 // EWMA accesses per epoch
	cool  int     // hysteresis epochs remaining
}

// Reconciler watches the access stream through MemSystem's access hook,
// closes an epoch every Config.Epoch sim-cycles, and applies the pure
// Plan's migrations: address-space overrides plus honestly modeled
// migration traffic. All state updates happen on the workload
// goroutine (the hook runs inline with each access), and the only
// counter read is BankBusyCycles, which observes and never mutates, so
// the schedule is byte-identical at any -j.
type Reconciler struct {
	cfg   Config
	space *memsim.Space
	mesh  *topo.Mesh
	mem   *cache.MemSystem
	rt    *core.Runtime

	granules map[memsim.Addr]*granule
	order    []memsim.Addr // first-touch order; the only iteration order

	bankHeat []float64
	lastBusy []uint64

	nextEpoch engine.Time
	inEpoch   bool

	lineCost float64
	hopCost  float64

	counters Counters
	log      []Applied
}

// NewReconciler builds a reconciler for one assembled machine. rt may
// be nil (no placement-policy load vector to maintain).
func NewReconciler(cfg Config, space *memsim.Space, mesh *topo.Mesh, mem *cache.MemSystem, rt *core.Runtime) *Reconciler {
	cfg = cfg.WithDefaults()
	lineCost, hopCost := mem.MigrationCostModel()
	return &Reconciler{
		cfg:       cfg,
		space:     space,
		mesh:      mesh,
		mem:       mem,
		rt:        rt,
		granules:  make(map[memsim.Addr]*granule),
		bankHeat:  make([]float64, mesh.Banks()),
		lastBusy:  make([]uint64, mesh.Banks()),
		nextEpoch: engine.Time(cfg.Epoch),
		lineCost:  lineCost,
		hopCost:   hopCost,
	}
}

// OnAccess is the MemSystem access hook. Epochs close lazily: the first
// access at or past the boundary closes every elapsed epoch before
// being counted, so the reconciler needs no clock of its own and the
// schedule is a pure function of the access stream.
func (r *Reconciler) OnAccess(now engine.Time, va memsim.Addr) {
	if now >= r.nextEpoch && !r.inEpoch {
		r.inEpoch = true
		for now >= r.nextEpoch {
			r.closeEpoch(r.nextEpoch)
			r.nextEpoch += engine.Time(r.cfg.Epoch)
		}
		r.inEpoch = false
	}
	start, size := r.space.Granule(va)
	g := r.granules[start]
	if g == nil {
		g = &granule{start: start, size: size, bank: -1}
		r.granules[start] = g
		r.order = append(r.order, start)
	}
	g.count++
}

// closeEpoch folds the open epoch into the EWMAs, plans, and applies.
// Its only machine read is BankBusyCycles, a copy of counters that are
// updated inline with every access, so the decision perturbs nothing.
func (r *Reconciler) closeEpoch(boundary engine.Time) {
	r.counters.Epochs++
	busy := r.mem.BankBusyCycles()
	for b := range r.bankHeat {
		delta := float64(busy[b] - r.lastBusy[b])
		r.lastBusy[b] = busy[b]
		r.bankHeat[b] = r.cfg.Alpha*delta + (1-r.cfg.Alpha)*r.bankHeat[b]
	}
	for _, start := range r.order {
		g := r.granules[start]
		g.heat = r.cfg.Alpha*float64(g.count) + (1-r.cfg.Alpha)*g.heat
		g.count = 0
		if g.cool > 0 {
			g.cool--
		}
		if b, err := r.space.HomeBank(g.start); err == nil {
			g.bank = b
		}
	}

	moves, stats := PlanVerbose(r.snapshot())
	r.counters.Rejected += uint64(stats.Rejected)
	for _, mv := range moves {
		r.apply(boundary, mv)
	}
}

// snapshot assembles the pure planner's input from current state.
func (r *Reconciler) snapshot() Snapshot {
	s := Snapshot{
		Banks:           make([]BankState, r.mesh.Banks()),
		Chunks:          make([]ChunkState, 0, len(r.order)),
		Threshold:       r.cfg.Threshold,
		Budget:          r.cfg.Budget,
		Payback:         r.cfg.Payback,
		Gain:            r.cfg.Gain,
		CyclesPerAccess: 1,
		LineCost:        r.lineCost,
		HopCost:         r.hopCost,
	}
	for b := range s.Banks {
		c := r.mesh.CoordOf(b)
		s.Banks[b] = BankState{Heat: r.bankHeat[b], Alive: r.space.BankAlive(b), X: c.X, Y: c.Y}
	}
	for _, start := range r.order {
		g := r.granules[start]
		if g.bank < 0 {
			continue
		}
		s.Chunks = append(s.Chunks, ChunkState{
			ID:    uint64(g.start),
			Bank:  g.bank,
			Heat:  g.heat,
			Lines: (g.size + memsim.LineSize - 1) / memsim.LineSize,
			Cool:  g.cool,
		})
	}
	return s
}

// apply executes one planned move: flip the address-space override,
// model the line traffic, pin the granule, and keep the Eq. 4 load
// vector consistent.
func (r *Reconciler) apply(boundary engine.Time, mv Move) {
	g := r.granules[memsim.Addr(mv.Chunk)]
	if g == nil {
		return
	}
	if err := r.space.SetHomeOverride(g.start, mv.To); err != nil {
		return
	}
	done := r.mem.MigrateLines(boundary, mv.From, mv.To, g.start, int64(g.size))
	if r.rt != nil {
		r.rt.NoteMigration(mv.From, mv.To)
	}
	g.bank = mv.To
	g.cool = r.cfg.Hysteresis
	if mv.Rehome {
		r.counters.KillRehomes++
	} else {
		r.counters.Migrations++
	}
	r.counters.MovedBytes += uint64(g.size)
	r.counters.MigrationCycles += uint64(done - boundary)
	r.log = append(r.log, Applied{Epoch: r.counters.Epochs, Chunk: g.start, From: mv.From, To: mv.To, Rehome: mv.Rehome})
}

// Counters returns the accumulated realloc counters.
func (r *Reconciler) Counters() Counters { return r.counters }

// Log returns the applied-migration log (shared slice; read-only).
func (r *Reconciler) Log() []Applied { return r.log }

// PublishTelemetry publishes the realloc_* scalars. Like the fault
// counters, the keys appear only when something actually happened —
// an armed-but-idle reconciler (threshold=inf, or a workload that
// never trips it) leaves the metrics document byte-identical to a
// realloc-free run.
func (r *Reconciler) PublishTelemetry(reg *telemetry.Registry) {
	c := r.counters
	if c.Migrations == 0 && c.KillRehomes == 0 && c.Rejected == 0 {
		return
	}
	reg.Set("realloc_migrations", c.Migrations)
	reg.Set("realloc_kill_rehomes", c.KillRehomes)
	reg.Set("realloc_moved_bytes", c.MovedBytes)
	reg.Set("realloc_migration_cycles", c.MigrationCycles)
	reg.Set("realloc_rejected", c.Rejected)
	reg.Set("realloc_migrated_accesses", r.space.MigratedAccesses)
}
