package power

import (
	"math"
	"testing"

	"intellinoc/internal/ecc"
)

func baselineCfg() RouterConfig {
	return RouterConfig{BufferSlots: 80, SlotsPerVC: 4} // 4 VC × 4 deep × 5 ports
}

func TestStaticPowerSchemeOrdering(t *testing.T) {
	p := DefaultParams()
	cfg := baselineCfg()
	none := p.StaticPower(cfg, ecc.SchemeNone, false)
	crc := p.StaticPower(cfg, ecc.SchemeCRC, false)
	sec := p.StaticPower(cfg, ecc.SchemeSECDED, false)
	dec := p.StaticPower(cfg, ecc.SchemeDECTED, false)
	if !(none < crc && crc < sec && sec < dec) {
		t.Fatalf("leakage must grow with ECC strength: %g %g %g %g", none, crc, sec, dec)
	}
}

func TestPowerGatingSavesLeakage(t *testing.T) {
	p := DefaultParams()
	cfg := RouterConfig{BufferSlots: 40, ChannelStages: 40, HasMFACCtrl: true, HasBST: true, HasQTable: true}
	on := p.StaticPower(cfg, ecc.SchemeSECDED, false)
	off := p.StaticPower(cfg, ecc.SchemeSECDED, true)
	if off >= on {
		t.Fatal("gating must reduce static power")
	}
	// The always-on portion (channels, MFAC, BST, Q-table) must survive.
	floor := float64(cfg.ChannelStages)*p.ChanLeakPerStage + p.MFACCtrlLeak + p.BSTLeak + p.QTableLeak
	if off < floor {
		t.Fatalf("gated power %g below always-on floor %g", off, floor)
	}
	savings := (on - off) / on
	if savings < 0.5 {
		t.Fatalf("expected substantial gating savings, got %.0f%%", savings*100)
	}
}

func TestMoreBuffersMoreLeakage(t *testing.T) {
	p := DefaultParams()
	small := p.StaticPower(RouterConfig{BufferSlots: 40}, ecc.SchemeSECDED, false)
	large := p.StaticPower(RouterConfig{BufferSlots: 80}, ecc.SchemeSECDED, false)
	if large <= small {
		t.Fatal("buffer leakage must scale with slot count")
	}
	if diff := large - small; math.Abs(diff-40*p.BufLeakPerSlot) > 1e-12 {
		t.Fatalf("leakage delta %g, want %g", diff, 40*p.BufLeakPerSlot)
	}
}

func TestDynamicEnergyLinear(t *testing.T) {
	p := DefaultParams()
	c := EventCounts{BufWrites: 10, BufReads: 10, XbarTraverses: 5, LinkHops: 20, ChanStages: 40, CRCChecks: 2}
	e1 := p.DynamicEnergy(c, 4)
	double := EventCounts{BufWrites: 20, BufReads: 20, XbarTraverses: 10, LinkHops: 40, ChanStages: 80, CRCChecks: 4}
	if math.Abs(p.DynamicEnergy(double, 4)-2*e1) > 1e-24 {
		t.Fatal("dynamic energy must be linear in counts")
	}
	if p.DynamicEnergy(EventCounts{}, 4) != 0 {
		t.Fatal("no events, no energy")
	}
}

func TestBufferEnergyScalesWithDepth(t *testing.T) {
	// The physical premise of iDEAL/EB (paper Section 2): smaller router
	// buffers cost less per access.
	p := DefaultParams()
	if p.BufWriteEnergy(4) <= p.BufWriteEnergy(2) || p.BufReadEnergy(2) <= p.BufReadEnergy(1) {
		t.Fatal("buffer access energy must grow with per-VC depth")
	}
	deep := p.DynamicEnergy(EventCounts{BufWrites: 100, BufReads: 100}, 4)
	shallow := p.DynamicEnergy(EventCounts{BufWrites: 100, BufReads: 100}, 2)
	if deep <= shallow {
		t.Fatal("deep-buffer router must burn more per access")
	}
}

func TestChannelStagesCheaperThanBuffers(t *testing.T) {
	// A tri-state channel stage must be far cheaper than a router buffer
	// access, or the MFAC design premise inverts.
	p := DefaultParams()
	if p.EChanStage*8 >= p.BufWriteEnergy(2)+p.BufReadEnergy(2) {
		t.Fatal("8 channel stages must cost less than one buffer write+read")
	}
}

func TestDECTEDEventsCostMoreThanSECDED(t *testing.T) {
	p := DefaultParams()
	sec := p.DynamicEnergy(EventCounts{SECDEDEncodes: 100, SECDEDDecodes: 100}, 4)
	dec := p.DynamicEnergy(EventCounts{DECTEDEncodes: 100, DECTEDDecodes: 100}, 4)
	if dec <= sec {
		t.Fatal("DECTED per-event energy must exceed SECDED")
	}
}

func TestRLStepEnergyMatchesPaper(t *testing.T) {
	// Paper Section 7.4: "at each 1k cycle time step, the RL consumes
	// 0.16 pJ".
	p := DefaultParams()
	if got := p.DynamicEnergy(EventCounts{RLSteps: 1}, 4); math.Abs(got-0.16e-12) > 1e-18 {
		t.Fatalf("RL step energy = %g, want 0.16 pJ", got)
	}
}

func TestMeterIntegration(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p, baselineCfg())
	m.TickStatic(2_000_000_000, ecc.SchemeSECDED, false) // one second
	wantStatic := p.StaticPower(baselineCfg(), ecc.SchemeSECDED, false)
	if math.Abs(m.StaticJoules-wantStatic) > 1e-9 {
		t.Fatalf("1s of leakage = %g J, want %g", m.StaticJoules, wantStatic)
	}
	for i := 0; i < 1000; i++ {
		m.Switch()
	}
	if m.DynamicJoules <= 0 || m.TotalJoules() <= m.StaticJoules {
		t.Fatal("dynamic energy not integrated")
	}
	if m.Events.XbarTraverses != 1000 || m.Events.BufReads != 1000 {
		t.Fatalf("Switch events = %+v, want 1000 buffer reads and crossbar traversals", m.Events)
	}
	if mp := m.MeanPower(2_000_000_000); math.Abs(mp-m.TotalJoules()) > 1e-12 {
		t.Fatalf("mean power over 1s should equal joules, got %g", mp)
	}
	if NewMeter(p, baselineCfg()).MeanPower(0) != 0 {
		t.Fatal("zero elapsed cycles must give zero mean power")
	}
}

// Table 2 reproduction: component totals and %change per technique.
func TestAreaReproducesTable2(t *testing.T) {
	baseline := Area(AreaConfig{BufSlotsPerPort: 16})
	eb := Area(AreaConfig{BufSlotsPerPort: 0, ChanStages: 16, ElasticChannel: true, DualSubnet: true})
	cp := Area(AreaConfig{BufSlotsPerPort: 8, ChanStages: 8, PowerGating: true})
	intelli := Area(AreaConfig{
		BufSlotsPerPort: 8, ChanStages: 8, MFAC: true,
		AdaptiveECC: true, PowerGating: true, RLTable: true,
	})

	within := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want)/want > tol {
			t.Errorf("%s area = %.1f, want ~%.1f", name, got, want)
		}
	}
	within("baseline", baseline.Total(), 119807.0, 0.001)
	within("EB", eb.Total(), 80612.6, 0.001)
	within("CP", cp.Total(), 83953.1, 0.001)
	within("IntelliNoC", intelli.Total(), 89313.7, 0.001)

	// %change column: EB -32.7%, CP -29.9%, IntelliNoC -25.4%.
	pct := func(a AreaBreakdown) float64 { return (a.Total() - baseline.Total()) / baseline.Total() * 100 }
	if p := pct(eb); math.Abs(p-(-32.7)) > 0.2 {
		t.Errorf("EB %%change = %.1f, want -32.7", p)
	}
	if p := pct(cp); math.Abs(p-(-29.9)) > 0.2 {
		t.Errorf("CP %%change = %.1f, want -29.9", p)
	}
	if p := pct(intelli); math.Abs(p-(-25.4)) > 0.2 {
		t.Errorf("IntelliNoC %%change = %.1f, want -25.4", p)
	}
}

func TestAreaComponentValues(t *testing.T) {
	baseline := Area(AreaConfig{BufSlotsPerPort: 16})
	if math.Abs(baseline.RouterBuffer-99864.0) > 1 {
		t.Errorf("baseline buffers = %.1f", baseline.RouterBuffer)
	}
	if baseline.Crossbar != AreaXbar || baseline.Channel != AreaWireChannel {
		t.Error("baseline crossbar/channel mismatch")
	}
	intelli := Area(AreaConfig{BufSlotsPerPort: 8, ChanStages: 8, MFAC: true, AdaptiveECC: true, PowerGating: true, RLTable: true})
	// Paper: IntelliNoC channel 2869.6 per port ⇒ ×5 ports here.
	if math.Abs(intelli.Channel-5*2869.6) > 1 {
		t.Errorf("IntelliNoC channel = %.1f, want %.1f", intelli.Channel, 5*2869.6)
	}
	if intelli.ECC != AreaECCAdaptive {
		t.Error("IntelliNoC must carry the adaptive ECC bank")
	}
	// Q-table + BST ≈ 4-5% of total router area (paper Section 7.4).
	frac := AreaQTableBST / intelli.Total()
	if frac < 0.035 || frac > 0.055 {
		t.Errorf("Q-table fraction = %.3f, want ~0.04", frac)
	}
}
