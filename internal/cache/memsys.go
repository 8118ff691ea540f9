package cache

import (
	"fmt"

	"affinityalloc/internal/engine"
	"affinityalloc/internal/faults"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/noc"
	"affinityalloc/internal/telemetry"
)

// MemSysConfig parameterizes the shared L3 + DRAM system (Table 2).
type MemSysConfig struct {
	BankSizeBytes int         // 1 MB per bank
	BankWays      int         // 16
	L3HitLatency  engine.Time // 20 cycles
	BankOccupancy engine.Time // per-access bank busy time (pipelined)
	DRAMLatency   engine.Time // access latency at 2GHz (~50ns)
	DRAMServe     engine.Time // per-line channel serialization (bandwidth)
	// Faults, when set, throttles DRAM channels: latency multipliers
	// stretch accesses, duty-cycle blackouts delay service start.
	Faults *faults.Injector
}

// DefaultMemSysConfig mirrors Table 2: 64MB total L3 across 64 banks,
// DDR4-3200 with 25.6 GB/s across 4 channels at a 2GHz core clock.
func DefaultMemSysConfig() MemSysConfig {
	return MemSysConfig{
		BankSizeBytes: 1 << 20,
		BankWays:      16,
		L3HitLatency:  20,
		BankOccupancy: 1,
		DRAMLatency:   100,
		DRAMServe:     20, // 64B at ~3.2 B/cycle per channel
	}
}

// MemSystem composes the banked L3 with the DRAM channels behind it and
// routes miss traffic over the NoC. All timing flows through it so bank
// queueing and DRAM bandwidth are shared by every requester.
type MemSystem struct {
	cfg   MemSysConfig
	space *memsim.Space
	net   *noc.Network
	banks []*SetAssoc
	// bankSrv schedules each bank's pipelined access port.
	bankSrv []engine.Server
	// ctrls and dramSrv model the memory controllers at the corners.
	ctrls   []int
	dramSrv []engine.Server
	// nearestCtrl caches the closest controller per bank.
	nearestCtrl []int

	// bankBusy accumulates each bank port's occupied cycles — the
	// per-bank load-balance series behind the paper's hot-bank analysis.
	bankBusy []uint64
	// Per-channel DRAM accounting: demand reads, writebacks, and the
	// cycles requests spent queued behind the channel (arrival to
	// service start) — the channel queue-depth signal.
	chanReads, chanWrites, chanQueueCycles []uint64

	DRAMReads  uint64
	DRAMWrites uint64

	// obs, when set, observes every timed access and preload (the trace
	// recorder's access-summary feed). Observation happens before timing
	// and cache state are touched and reads nothing back, so a recording
	// run stays byte-identical to a direct run.
	obs AccessObserver

	// kills holds the pending mid-run bank kills sorted by cycle; the
	// first access whose cycle reaches the head entry applies it. onKill
	// notifies the system (injector bookkeeping, stream-engine redirect
	// rebuild) after the space has marked the bank dead.
	kills  []faults.BankKill
	onKill func(at engine.Time, bank int)

	// onAccess, when set, feeds every timed access to the online
	// reconciler. It is a dedicated hook — not an AccessObserver — so it
	// composes with trace recording, and it runs after the kill check so
	// an epoch closing at cycle T observes any bank killed at T.
	onAccess func(now engine.Time, va memsim.Addr)
}

// NewMemSystem wires banks, controllers and DRAM channels over the mesh.
func NewMemSystem(space *memsim.Space, net *noc.Network, cfg MemSysConfig) (*MemSystem, error) {
	nbanks := space.Banks()
	if nbanks != net.Mesh().Banks() {
		return nil, fmt.Errorf("cache: space has %d banks but mesh has %d", nbanks, net.Mesh().Banks())
	}
	m := &MemSystem{
		cfg:         cfg,
		space:       space,
		net:         net,
		banks:       make([]*SetAssoc, nbanks),
		bankSrv:     make([]engine.Server, nbanks),
		ctrls:       net.Mesh().MemControllers(),
		nearestCtrl: make([]int, nbanks),
		bankBusy:    make([]uint64, nbanks),
	}
	m.dramSrv = make([]engine.Server, len(m.ctrls))
	m.chanReads = make([]uint64, len(m.ctrls))
	m.chanWrites = make([]uint64, len(m.ctrls))
	m.chanQueueCycles = make([]uint64, len(m.ctrls))
	for i := range m.dramSrv {
		m.dramSrv[i].Init(1, 16, 4096)
	}
	for i := range m.banks {
		m.bankSrv[i].Init(1, 8, 4096)
		bank, err := NewSetAssoc(cfg.BankSizeBytes, cfg.BankWays, BRRIP)
		if err != nil {
			return nil, err
		}
		m.banks[i] = bank
		ctrl, _ := net.Mesh().NearestMemController(i)
		for ci, c := range m.ctrls {
			if c == ctrl {
				m.nearestCtrl[i] = ci
			}
		}
	}
	return m, nil
}

// Space returns the simulated address space.
func (m *MemSystem) Space() *memsim.Space { return m.space }

// Net returns the interconnect.
func (m *MemSystem) Net() *noc.Network { return m.net }

// Banks returns the number of L3 banks.
func (m *MemSystem) Banks() int { return len(m.banks) }

// BankOf returns the home L3 bank of the line containing va.
func (m *MemSystem) BankOf(va memsim.Addr) int {
	return m.space.MustBank(memsim.LineAddr(va))
}

// Access performs an L3 access to the line containing va at its home
// bank, starting no earlier than cycle now. It models bank queueing and,
// on a miss, the round trip to the nearest DRAM channel (with its traffic
// charged to the NoC). It returns the completion cycle and whether the
// access hit in the bank.
func (m *MemSystem) Access(now engine.Time, va memsim.Addr, write bool) (done engine.Time, hit bool) {
	bank := m.BankOf(va)
	return m.AccessAt(now, bank, va, write)
}

// AccessObserver receives every timed L3 access and every preload —
// the hook internal/trace records access summaries through. Observers
// must not issue accesses themselves.
type AccessObserver interface {
	ObserveAccess(va memsim.Addr, write bool)
	ObservePreload(va memsim.Addr, bytes int64)
}

// SetObserver installs (or, with nil, removes) the access observer.
func (m *MemSystem) SetObserver(o AccessObserver) { m.obs = o }

// SetAccessHook installs the reconciler's per-access feed (nil removes
// it). The hook must not issue accesses itself; MigrateLines is the one
// re-entry it is allowed.
func (m *MemSystem) SetAccessHook(h func(now engine.Time, va memsim.Addr)) { m.onAccess = h }

// SetBankKills arms the mid-run bank kills (sorted by cycle; the
// injector's BankKills order). onKill runs after each kill has been
// applied to the address space.
func (m *MemSystem) SetBankKills(kills []faults.BankKill, onKill func(at engine.Time, bank int)) {
	m.kills = append([]faults.BankKill(nil), kills...)
	m.onKill = onKill
}

// applyKills fires every armed kill whose cycle has been reached. The
// access that carried the clock past the kill cycle still lands on the
// bank it resolved before the kill — one in-flight access, deterministic
// in every configuration — and every later lookup sees the dead bank.
func (m *MemSystem) applyKills(now engine.Time) {
	for len(m.kills) > 0 && now >= engine.Time(m.kills[0].At) {
		k := m.kills[0]
		m.kills = m.kills[1:]
		if err := m.space.KillBank(k.Bank); err != nil {
			panic(fmt.Sprintf("cache: armed kill-bank %d invalid despite injector validation (programmer error): %v", k.Bank, err))
		}
		if m.onKill != nil {
			m.onKill(engine.Time(k.At), k.Bank)
		}
	}
	if len(m.kills) == 0 {
		m.kills = nil
	}
}

// AccessAt is Access for callers that already resolved the home bank.
func (m *MemSystem) AccessAt(now engine.Time, bank int, va memsim.Addr, write bool) (done engine.Time, hit bool) {
	if m.kills != nil {
		m.applyKills(now)
	}
	if m.onAccess != nil {
		m.onAccess(now, va)
	}
	if m.obs != nil {
		m.obs.ObserveAccess(va, write)
	}
	line := uint64(memsim.Line(va))
	start := m.bankSrv[bank].Reserve(now, int(m.cfg.BankOccupancy))
	m.bankBusy[bank] += uint64(m.cfg.BankOccupancy)

	hit, victim, dirtyVictim := m.banks[bank].Access(line, write)
	done = start + m.cfg.L3HitLatency
	if hit {
		return done, true
	}

	// Miss: request line from the nearest DRAM channel. A channel throttle
	// (fault injection) can push the service start past a blackout window
	// and stretch the access latency; the wait shows up as channel queue
	// cycles like any other backpressure.
	ci := m.nearestCtrl[bank]
	ctrl := m.ctrls[ci]
	reqArrive := m.net.Send(done, bank, ctrl, noc.Control, 8)
	ready, latency := reqArrive, m.cfg.DRAMLatency
	if m.cfg.Faults != nil {
		ready, latency = m.cfg.Faults.DRAMAdjust(ci, reqArrive, latency)
	}
	dramStart := m.dramSrv[ci].Reserve(ready, int(m.cfg.DRAMServe))
	m.DRAMReads++
	m.chanReads[ci]++
	m.chanQueueCycles[ci] += uint64(dramStart - reqArrive)
	dataReady := dramStart + latency
	respArrive := m.net.Send(dataReady, ctrl, bank, noc.Data, memsim.LineSize)

	if dirtyVictim {
		// Write the victim back lazily; it occupies the channel but does
		// not delay the demand fill's critical path.
		wbArrive := m.net.Send(done, bank, ctrl, noc.Data, memsim.LineSize)
		wbReady := wbArrive
		if m.cfg.Faults != nil {
			wbReady, _ = m.cfg.Faults.DRAMAdjust(ci, wbArrive, 0)
		}
		wbStart := m.dramSrv[ci].Reserve(wbReady, int(m.cfg.DRAMServe))
		m.DRAMWrites++
		m.chanWrites[ci]++
		m.chanQueueCycles[ci] += uint64(wbStart - wbArrive)
		_ = victim
	}
	return respArrive, false
}

// Preload installs every line of [va, va+bytes) into its home bank
// without charging time, traffic, or statistics — modeling data resident
// in the LLC after initialization, which is the paper's measurement
// regime (Fig 15 studies what happens when it no longer fits).
func (m *MemSystem) Preload(va memsim.Addr, bytes int64) {
	if m.obs != nil {
		m.obs.ObservePreload(va, bytes)
	}
	end := va + memsim.Addr(bytes)
	for line := memsim.LineAddr(va); line < end; line += memsim.LineSize {
		bank := m.BankOf(line)
		m.banks[bank].Install(uint64(memsim.Line(line)))
	}
}

// TotalL3Stats sums access/hit/miss counters across banks.
func (m *MemSystem) TotalL3Stats() (accesses, hits, misses uint64) {
	for _, b := range m.banks {
		accesses += b.Accesses
		hits += b.Hits
		misses += b.Misses
	}
	return accesses, hits, misses
}

// BankBusyCycles returns a copy of each bank port's accumulated busy
// cycles.
func (m *MemSystem) BankBusyCycles() []uint64 {
	out := make([]uint64, len(m.bankBusy))
	copy(out, m.bankBusy)
	return out
}

// PublishTelemetry publishes the per-bank L3 access/hit/miss/occupancy
// series and the per-channel DRAM read/write/queue series into the
// registry — the access-balance view behind Figs 5, 6 and 12.
func (m *MemSystem) PublishTelemetry(r *telemetry.Registry) {
	n := len(m.banks)
	acc := make([]uint64, n)
	hits := make([]uint64, n)
	miss := make([]uint64, n)
	for i, b := range m.banks {
		acc[i], hits[i], miss[i] = b.Accesses, b.Hits, b.Misses
	}
	r.SetSeries("l3_bank_accesses", acc)
	r.SetSeries("l3_bank_hits", hits)
	r.SetSeries("l3_bank_misses", miss)
	r.SetSeries("l3_bank_busy_cycles", m.bankBusy)
	r.SetSeries("dram_chan_reads", m.chanReads)
	r.SetSeries("dram_chan_writes", m.chanWrites)
	r.SetSeries("dram_chan_queue_cycles", m.chanQueueCycles)
}

// MigrateLines models re-homing the lines of [va, va+bytes) from bank
// `from` to bank `to`, starting no earlier than cycle now: per line, a
// read occupying the source bank port, a data-class NoC transfer from
// source to destination, and a write occupying the destination port that
// installs the line there. Everything flows through the shared servers
// and the mesh — migration is honest traffic, not teleportation — and
// the caller flips the address-space override separately. Returns the
// completion cycle of the last line.
func (m *MemSystem) MigrateLines(now engine.Time, from, to int, va memsim.Addr, bytes int64) engine.Time {
	done := now
	end := va + memsim.Addr(bytes)
	for line := memsim.LineAddr(va); line < end; line += memsim.LineSize {
		rd := m.bankSrv[from].Reserve(now, int(m.cfg.BankOccupancy))
		m.bankBusy[from] += uint64(m.cfg.BankOccupancy)
		arrive := m.net.Send(rd+m.cfg.L3HitLatency, from, to, noc.Data, memsim.LineSize)
		wr := m.bankSrv[to].Reserve(arrive, int(m.cfg.BankOccupancy))
		m.bankBusy[to] += uint64(m.cfg.BankOccupancy)
		m.banks[to].Install(uint64(memsim.Line(line)))
		if fin := wr + m.cfg.L3HitLatency; fin > done {
			done = fin
		}
	}
	return done
}

// MigrationCostModel returns the planner's per-line and per-hop cycle
// costs, matching what MigrateLines actually charges: two port
// reservations plus two bank latencies per line, and the NoC's per-hop
// traversal for the transfer distance.
func (m *MemSystem) MigrationCostModel() (lineCycles, hopCycles float64) {
	return float64(2*m.cfg.BankOccupancy + 2*m.cfg.L3HitLatency), float64(m.net.PerHopCycles())
}

// Release hands the bank tag arrays and the port and channel windows
// back for the next machine to reuse. The memory system must not be
// accessed afterwards; counters already published stay valid. Releasing
// twice does nothing.
func (m *MemSystem) Release() {
	for _, b := range m.banks {
		b.Release()
	}
	for i := range m.bankSrv {
		m.bankSrv[i].Release()
	}
	for i := range m.dramSrv {
		m.dramSrv[i].Release()
	}
}
