// Package fault models the two failure mechanisms of the paper's Section 6:
// transient timing faults on inter-router links (a VARIUS-style bit error
// rate driven by temperature and supply voltage, eq. 3) and permanent faults
// from transistor aging (NBTI + HCI threshold-voltage shift, eqs. 4-7, with
// the 10% ΔVth failure criterion and MTTF extrapolation).
package fault

import (
	"math"
	"math/rand"
)

// TransientModel produces a per-bit timing-error probability Re as a
// function of router operating temperature and supply voltage, standing in
// for the VARIUS process-variation model the paper feeds with HotSpot
// temperatures. Re rises exponentially with temperature and falls with
// voltage — the two monotonicities the paper's control loop depends on.
type TransientModel struct {
	// BaseRate is Re at the reference temperature and voltage. The
	// paper's sensitivity sweep (Fig. 17b) varies this from 1e-7 to
	// 1e-10.
	BaseRate float64
	// RefTempC and RefVdd anchor the exponentials.
	RefTempC float64
	RefVdd   float64
	// TempCoeff is the per-°C exponent: Re doubles roughly every
	// ln(2)/TempCoeff degrees above the reference.
	TempCoeff float64
	// VoltCoeff is the per-volt exponent (negative effect: higher Vdd
	// gives more timing margin, hence fewer errors).
	VoltCoeff float64
	// RelaxFactor multiplies Re when a link operates in relaxed-timing
	// mode (operation mode 4 / MFAC relaxed buffers): doubling the link
	// traversal time reduces timing-error probability "to near zero"
	// (paper Section 4, citing DiTomaso et al.).
	RelaxFactor float64
}

// DefaultTransientModel returns the model calibrated so that a router at
// the nominal 1.0 V / 60 °C operating point sees the configured base rate,
// matching the Table 1 environment.
func DefaultTransientModel(baseRate float64) TransientModel {
	return TransientModel{
		BaseRate:    baseRate,
		RefTempC:    60.0,
		RefVdd:      1.0,
		TempCoeff:   0.08, // ~2x per 9 °C
		VoltCoeff:   8.0,  // ~2x per -85 mV
		RelaxFactor: 1e-3,
	}
}

// BitErrorRate returns Re for a link whose driving router runs at the given
// temperature (°C) and supply voltage (V). The relaxed flag applies the
// relaxed-timing reduction.
func (m TransientModel) BitErrorRate(tempC, vdd float64, relaxed bool) float64 {
	re := m.BaseRate *
		math.Exp(m.TempCoeff*(tempC-m.RefTempC)) *
		math.Exp(-m.VoltCoeff*(vdd-m.RefVdd))
	if relaxed {
		re *= m.RelaxFactor
	}
	if re > 0.5 {
		re = 0.5 // a link this broken is saturated, not probabilistic
	}
	return re
}

// BitErrorRates returns both the normal and the relaxed-timing Re for one
// operating point with a single pair of exponentials. The two values are
// bit-identical to calling BitErrorRate twice — the simulator caches them
// per router between thermal steps, which is what keeps math.Exp off the
// per-flit fault-injection path.
func (m TransientModel) BitErrorRates(tempC, vdd float64) (re, relaxed float64) {
	re = m.BaseRate *
		math.Exp(m.TempCoeff*(tempC-m.RefTempC)) *
		math.Exp(-m.VoltCoeff*(vdd-m.RefVdd))
	relaxed = re * m.RelaxFactor
	if re > 0.5 {
		re = 0.5
	}
	if relaxed > 0.5 {
		relaxed = 0.5
	}
	return re, relaxed
}

// FlitFaultProb implements eq. 3: the probability that an n-bit flit
// acquires at least one error during one link traversal.
func FlitFaultProb(re float64, bits int) float64 {
	return 1 - math.Pow(1-re, float64(bits))
}

// Injector samples per-flit error-bit counts with a deterministic PRNG so
// that simulations are reproducible.
type Injector struct {
	Model TransientModel
	rng   *rand.Rand
}

// NewInjector returns an injector seeded for reproducibility.
func NewInjector(model TransientModel, seed int64) *Injector {
	return &Injector{Model: model, rng: rand.New(rand.NewSource(seed))}
}

// SampleErrorBits draws the number of bit upsets suffered by a flit of the
// given width crossing one link at the given operating point. The count is
// Binomial(bits, Re); for the tiny rates involved the exact Poisson
// inversion below is indistinguishable and branch-free on the hot path.
func (in *Injector) SampleErrorBits(bits int, tempC, vdd float64, relaxed bool) int {
	return in.SampleFlit(NewFlitRate(in.Model.BitErrorRate(tempC, vdd, relaxed), bits))
}

// FlitRate is a per-bit error rate prepared for one flit width: the
// Poisson mean λ = re·bits of the flit's error count and e^−λ, the
// threshold of the sampler's Knuth branch. Callers that sample many flits
// at one rate build it once, which keeps math.Exp off the per-hop path.
type FlitRate struct {
	bits         int
	lambda       float64
	expNegLambda float64
}

// NewFlitRate prepares the per-bit rate re for flits of the given width.
// A rate or width <= 0 gives the zero FlitRate, which never injects.
func NewFlitRate(re float64, bits int) FlitRate {
	if re <= 0 || bits <= 0 {
		return FlitRate{}
	}
	lambda := re * float64(bits)
	return FlitRate{bits: bits, lambda: lambda, expNegLambda: math.Exp(-lambda)}
}

// SampleFlit draws the error-bit count of one flit crossing one link at
// the prepared rate.
func (in *Injector) SampleFlit(r FlitRate) int {
	if r.bits <= 0 {
		return 0
	}
	var n int
	lambda := r.lambda
	// Fast path: P(>=1 error) ~= lambda for the rates NoCs see. One
	// uniform draw rejects the overwhelmingly common zero case.
	if lambda < 1e-3 {
		u := in.rng.Float64()
		if u >= lambda {
			return 0
		}
		n = 1
		// Conditional on >=1, P(>=2 | >=1) ~= lambda/2.
		if u < lambda*lambda/2 {
			n = 2
			if u < lambda*lambda*lambda/6 {
				n = 3
			}
		}
	} else {
		// Knuth Poisson sampling. Table 1's base rate on 128-bit flits
		// already lands here (λ ≈ 5e-3).
		k, p := 0, 1.0
		for p > r.expNegLambda {
			k++
			p *= in.rng.Float64()
		}
		n = k - 1
	}
	if n >= 1 {
		n += in.burstExtension()
	}
	if n > r.bits {
		n = r.bits
	}
	return n
}

// burstExtension widens a fault event into a multi-bit burst. Timing
// violations and crosstalk on links corrupt adjacent bits together rather
// than independently — the reason SECDED alone is not enough and DECTED
// hardware exists (paper Section 3.2, citing the 2D-coding work [28,29]).
// Given an event, the burst-size distribution is 1 bit 75%, 2 bits 15%,
// 3 bits 6%, 4 bits 4%.
func (in *Injector) burstExtension() int {
	r := in.rng.Float64()
	switch {
	case r < 0.04:
		return 3
	case r < 0.10:
		return 2
	case r < 0.25:
		return 1
	default:
		return 0
	}
}
