package energy

import "testing"

func TestEstimateLinear(t *testing.T) {
	p := DefaultParams()
	c := Counts{
		L3Accesses:   100,
		DRAMAccesses: 10,
		NoCFlitHops:  1000,
	}
	b := Estimate(c, p)
	if b.L3 != 100*p.L3AccessPJ {
		t.Errorf("L3 energy %f", b.L3)
	}
	if b.DRAM != 10*p.DRAMAccessPJ {
		t.Errorf("DRAM energy %f", b.DRAM)
	}
	if b.NoC != 1000*p.NoCFlitHopPJ {
		t.Errorf("NoC energy %f", b.NoC)
	}
	want := b.L3 + b.DRAM + b.NoC
	if b.Total() != want {
		t.Errorf("Total %f, want %f", b.Total(), want)
	}
	// Doubling counts doubles energy.
	c2 := c
	c2.L3Accesses *= 2
	c2.DRAMAccesses *= 2
	c2.NoCFlitHops *= 2
	if got := Estimate(c2, p).Total(); got != 2*b.Total() {
		t.Errorf("nonlinear estimate: %f vs %f", got, 2*b.Total())
	}
}

func TestStaticEnergyScalesWithTime(t *testing.T) {
	p := DefaultParams()
	c := Counts{ElapsedCycles: 1000, Routers: 64, Banks: 64}
	b := Estimate(c, p)
	if b.Static <= 0 {
		t.Error("no static energy")
	}
	c.ElapsedCycles = 2000
	if got := Estimate(c, p).Static; got != 2*b.Static {
		t.Errorf("static energy not linear in time: %f vs %f", got, 2*b.Static)
	}
}

func TestRelativeMagnitudes(t *testing.T) {
	// Sanity ordering of per-event energies: DRAM >> L3 > L2 > L1 > SEL3 op.
	p := DefaultParams()
	if !(p.DRAMAccessPJ > p.L3AccessPJ && p.L3AccessPJ > p.L2AccessPJ &&
		p.L2AccessPJ > p.L1AccessPJ && p.L1AccessPJ > p.SEL3OpPJ) {
		t.Errorf("per-event energy ordering violated: %+v", p)
	}
	// A wide OOO core cycle costs far more than a stream-engine op.
	if p.CoreCyclePJ < 10*p.SEL3OpPJ {
		t.Error("core cycle should dwarf SEL3 op energy")
	}
}
