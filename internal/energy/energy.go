// Package energy estimates energy from event counts, standing in for the
// paper's McPAT/CACTI flow. Per-event energies are relative magnitudes
// taken from the architecture literature for a 22nm-class process; the
// evaluation only ever uses energy *ratios* (energy efficiency normalized
// to a baseline), which depend on the event-count differences the
// simulator produces, not on absolute joules.
package energy

// Params holds per-event energy costs in picojoules (relative scale).
type Params struct {
	CoreCyclePJ   float64 // static + clock power per active core cycle
	ALUOpPJ       float64
	SIMDOpPJ      float64
	L1AccessPJ    float64
	L2AccessPJ    float64
	L3AccessPJ    float64
	DRAMAccessPJ  float64
	NoCFlitHopPJ  float64
	SEL3OpPJ      float64 // per stream-engine element operation
	RouterIdlePJ  float64 // per router per cycle
	UncoreCyclePJ float64 // shared-cache leakage per bank per cycle
}

// DefaultParams returns the relative per-event costs.
func DefaultParams() Params {
	return Params{
		CoreCyclePJ:   12, // a wide OOO core burns far more per cycle than uncore
		ALUOpPJ:       1.5,
		SIMDOpPJ:      6,
		L1AccessPJ:    2,
		L2AccessPJ:    8,
		L3AccessPJ:    20,
		DRAMAccessPJ:  150,
		NoCFlitHopPJ:  4,
		SEL3OpPJ:      0.8, // lightweight engines skip fetch/rename/LSQ
		RouterIdlePJ:  0.4,
		UncoreCyclePJ: 0.5,
	}
}

// Counts aggregates the event counts a run produced. The JSON tags are
// the stable snake_case metrics schema.
type Counts struct {
	CoreActiveCycles uint64 `json:"core_active_cycles"` // summed over cores
	ALUOps           uint64 `json:"alu_ops"`
	SIMDOps          uint64 `json:"simd_ops"`
	L1Accesses       uint64 `json:"l1_accesses"`
	L2Accesses       uint64 `json:"l2_accesses"`
	L3Accesses       uint64 `json:"l3_accesses"`
	DRAMAccesses     uint64 `json:"dram_accesses"`
	NoCFlitHops      uint64 `json:"noc_flit_hops"`
	SEL3Ops          uint64 `json:"se_l3_ops"`
	ElapsedCycles    uint64 `json:"elapsed_cycles"`
	Routers          int    `json:"routers"`
	Banks            int    `json:"banks"`
}

// Breakdown is energy per component, in the Params scale. Only the raw
// per-component values are stored; the total is always derived (Total).
type Breakdown struct {
	Core    float64 `json:"core"`
	Compute float64 `json:"compute"`
	L1      float64 `json:"l1"`
	L2      float64 `json:"l2"`
	L3      float64 `json:"l3"`
	DRAM    float64 `json:"dram"`
	NoC     float64 `json:"noc"`
	SEL3    float64 `json:"se_l3"`
	Static  float64 `json:"static"`
}

// Total sums the breakdown.
func (b Breakdown) Total() float64 {
	return b.Core + b.Compute + b.L1 + b.L2 + b.L3 + b.DRAM + b.NoC + b.SEL3 + b.Static
}

// Estimate converts counts to an energy breakdown.
func Estimate(c Counts, p Params) Breakdown {
	return Breakdown{
		Core:    float64(c.CoreActiveCycles) * p.CoreCyclePJ,
		Compute: float64(c.ALUOps)*p.ALUOpPJ + float64(c.SIMDOps)*p.SIMDOpPJ,
		L1:      float64(c.L1Accesses) * p.L1AccessPJ,
		L2:      float64(c.L2Accesses) * p.L2AccessPJ,
		L3:      float64(c.L3Accesses) * p.L3AccessPJ,
		DRAM:    float64(c.DRAMAccesses) * p.DRAMAccessPJ,
		NoC:     float64(c.NoCFlitHops) * p.NoCFlitHopPJ,
		SEL3:    float64(c.SEL3Ops) * p.SEL3OpPJ,
		Static: float64(c.ElapsedCycles) *
			(float64(c.Routers)*p.RouterIdlePJ + float64(c.Banks)*p.UncoreCyclePJ),
	}
}
