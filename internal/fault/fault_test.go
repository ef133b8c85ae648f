package fault

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBitErrorRateMonotonicInTemperature(t *testing.T) {
	m := DefaultTransientModel(1e-9)
	prev := 0.0
	for temp := 40.0; temp <= 110; temp += 5 {
		re := m.BitErrorRate(temp, 1.0, false)
		if re <= prev {
			t.Fatalf("Re not increasing at %v °C: %g <= %g", temp, re, prev)
		}
		prev = re
	}
}

func TestBitErrorRateMonotonicInVoltage(t *testing.T) {
	m := DefaultTransientModel(1e-9)
	prev := math.Inf(1)
	for vdd := 0.8; vdd <= 1.2; vdd += 0.05 {
		re := m.BitErrorRate(60, vdd, false)
		if re >= prev {
			t.Fatalf("Re not decreasing at %v V", vdd)
		}
		prev = re
	}
}

func TestBitErrorRateReferencePoint(t *testing.T) {
	m := DefaultTransientModel(1e-8)
	re := m.BitErrorRate(m.RefTempC, m.RefVdd, false)
	if math.Abs(re-1e-8)/1e-8 > 1e-12 {
		t.Fatalf("Re at reference = %g, want 1e-8", re)
	}
}

func TestRelaxedModeReducesRate(t *testing.T) {
	m := DefaultTransientModel(1e-7)
	normal := m.BitErrorRate(80, 1.0, false)
	relaxed := m.BitErrorRate(80, 1.0, true)
	if relaxed >= normal*1e-2 {
		t.Fatalf("relaxed mode should cut Re by >=100x: %g vs %g", relaxed, normal)
	}
}

func TestBitErrorRateSaturates(t *testing.T) {
	m := DefaultTransientModel(1e-2)
	if re := m.BitErrorRate(500, 0.5, false); re > 0.5 {
		t.Fatalf("Re must saturate at 0.5, got %g", re)
	}
}

func TestFlitFaultProbEq3(t *testing.T) {
	// P = 1-(1-Re)^n; check against direct evaluation and bounds.
	cases := []struct {
		re   float64
		bits int
	}{{1e-9, 128}, {1e-7, 128}, {1e-4, 512}, {0, 128}}
	for _, c := range cases {
		p := FlitFaultProb(c.re, c.bits)
		want := 1 - math.Pow(1-c.re, float64(c.bits))
		if p != want {
			t.Fatalf("FlitFaultProb mismatch")
		}
		if p < 0 || p > 1 {
			t.Fatalf("probability out of range: %g", p)
		}
		if c.re > 0 && p < c.re {
			t.Fatalf("flit probability below bit probability")
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	m := DefaultTransientModel(1e-5)
	a := NewInjector(m, 42)
	b := NewInjector(m, 42)
	for i := 0; i < 10000; i++ {
		if a.SampleErrorBits(128, 85, 1.0, false) != b.SampleErrorBits(128, 85, 1.0, false) {
			t.Fatal("same seed must give identical streams")
		}
	}
}

func TestInjectorRateMatchesExpectation(t *testing.T) {
	m := DefaultTransientModel(1e-5)
	in := NewInjector(m, 1)
	const trials = 2_000_000
	bits := 128
	total := 0
	events := 0
	for i := 0; i < trials; i++ {
		k := in.SampleErrorBits(bits, m.RefTempC, m.RefVdd, false)
		total += k
		if k > 0 {
			events++
		}
	}
	// Event rate ~ lambda; total error mass ~ lambda × (1 + mean burst
	// extension 0.39).
	lambda := 1e-5 * float64(bits)
	wantEvents := lambda * trials
	if math.Abs(float64(events)-wantEvents)/wantEvents > 0.05 {
		t.Fatalf("event count %d, want ~%g", events, wantEvents)
	}
	wantMass := wantEvents * 1.39
	if math.Abs(float64(total)-wantMass)/wantMass > 0.07 {
		t.Fatalf("sampled error mass %d, want ~%g", total, wantMass)
	}
}

func TestBurstDistribution(t *testing.T) {
	// Given an event, burst sizes must follow ~75/15/6/4%.
	in := NewInjector(DefaultTransientModel(1e-4), 8)
	counts := map[int]int{}
	events := 0
	for i := 0; i < 5_000_000 && events < 200_000; i++ {
		k := in.SampleErrorBits(128, 60, 1.0, false)
		if k > 0 {
			counts[k]++
			events++
		}
	}
	frac := func(k int) float64 { return float64(counts[k]) / float64(events) }
	if f := frac(1); f < 0.70 || f > 0.80 {
		t.Fatalf("P(1 bit | event) = %.3f, want ~0.75", f)
	}
	if f := frac(2); f < 0.12 || f > 0.19 {
		t.Fatalf("P(2 bits | event) = %.3f, want ~0.15", f)
	}
	if f := frac(3); f < 0.04 || f > 0.09 {
		t.Fatalf("P(3 bits | event) = %.3f, want ~0.06", f)
	}
	if f := frac(4); f < 0.02 || f > 0.06 {
		t.Fatalf("P(4 bits | event) = %.3f, want ~0.04", f)
	}
}

func TestInjectorZeroRate(t *testing.T) {
	in := NewInjector(DefaultTransientModel(0), 3)
	for i := 0; i < 1000; i++ {
		if in.SampleErrorBits(128, 100, 0.8, false) != 0 {
			t.Fatal("zero base rate must never inject")
		}
	}
}

func TestInjectorHighRateBounded(t *testing.T) {
	in := NewInjector(DefaultTransientModel(0.4), 4)
	for i := 0; i < 1000; i++ {
		n := in.SampleFlit(NewFlitRate(0.5, 16))
		if n < 0 || n > 16 {
			t.Fatalf("error count %d out of [0,16]", n)
		}
	}
}

func TestWearAccrualMonotonic(t *testing.T) {
	p := DefaultAgingParams()
	var w Wear
	prev := 0.0
	for i := 0; i < 100; i++ {
		w.Accrue(p, 3600, 70, 0.5, true)
		_, _, dv := p.DeltaVth(w)
		if dv <= prev {
			t.Fatalf("ΔVth must increase with stress: %g <= %g", dv, prev)
		}
		prev = dv
	}
}

func TestPowerGatedRoutersDoNotAge(t *testing.T) {
	p := DefaultAgingParams()
	var gated, active Wear
	for i := 0; i < 50; i++ {
		gated.Accrue(p, 1000, 70, 0.5, false)
		active.Accrue(p, 1000, 70, 0.5, true)
	}
	_, _, dvGated := p.DeltaVth(gated)
	_, _, dvActive := p.DeltaVth(active)
	if dvGated >= dvActive {
		t.Fatal("power gating must slow aging")
	}
	if g, _ := dvGated, 0.0; g != p.nbtiAtZero() {
		// Gated wear equals the zero-stress baseline (tox term only).
		t.Fatalf("gated ΔVth %g, want zero-stress baseline %g", g, p.nbtiAtZero())
	}
}

// nbtiAtZero exposes the zero-stress NBTI floor for the gating test.
func (p AgingParams) nbtiAtZero() float64 {
	n, h, _ := p.DeltaVth(Wear{})
	return n + h
}

func TestHotterRoutersAgeFaster(t *testing.T) {
	p := DefaultAgingParams()
	var cool, hot Wear
	for i := 0; i < 50; i++ {
		cool.Accrue(p, 1000, 55, 0.5, true)
		hot.Accrue(p, 1000, 90, 0.5, true)
	}
	if p.AgingFactor(cool) >= p.AgingFactor(hot) {
		t.Fatal("higher temperature must accelerate aging")
	}
}

func TestAgingFactorAlwaysAboveOne(t *testing.T) {
	p := DefaultAgingParams()
	f := func(hours uint16, temp uint8, act uint8) bool {
		var w Wear
		w.Accrue(p, float64(hours)*3600, 40+float64(temp%70), float64(act%101)/100, true)
		return p.AgingFactor(w) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMTTFDecreasesWithStress(t *testing.T) {
	p := DefaultAgingParams()
	var light, heavy Wear
	light.Accrue(p, 1e5, 55, 0.1, true)
	heavy.Accrue(p, 1e5, 95, 0.9, true)
	ml, mh := p.MTTFSeconds(light), p.MTTFSeconds(heavy)
	if !(mh < ml) {
		t.Fatalf("heavier stress must shorten MTTF: light %g heavy %g", ml, mh)
	}
	if math.IsInf(ml, 1) || ml <= 0 {
		t.Fatalf("finite positive MTTF expected, got %g", ml)
	}
}

func TestMTTFInfiniteForUnstressed(t *testing.T) {
	p := DefaultAgingParams()
	if !math.IsInf(p.MTTFSeconds(Wear{}), 1) {
		t.Fatal("unstressed device must have infinite MTTF")
	}
}

func TestMTTFConsistentWithFailed(t *testing.T) {
	p := DefaultAgingParams()
	var w Wear
	w.Accrue(p, 1e6, 80, 0.7, true)
	mttf := p.MTTFSeconds(w)
	// Accrue at the same average rate up to just past the MTTF: the
	// device must then report Failed.
	var w2 Wear
	w2.Accrue(p, mttf*1.01, 80, 0.7, true)
	if !p.Failed(w2) {
		t.Fatal("device stressed past its MTTF must be failed")
	}
	var w3 Wear
	w3.Accrue(p, mttf*0.5, 80, 0.7, true)
	if p.Failed(w3) {
		t.Fatal("device at half its MTTF must not be failed")
	}
}

func TestFITConversion(t *testing.T) {
	// MTTF of 1e9 hours corresponds to 1 FIT.
	if got := FIT(1e9 * 3600); math.Abs(got-1) > 1e-9 {
		t.Fatalf("FIT(1e9h) = %g, want 1", got)
	}
	if FIT(math.Inf(1)) != 0 {
		t.Fatal("infinite MTTF must be 0 FIT")
	}
}
