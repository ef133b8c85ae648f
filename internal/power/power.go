// Package power models NoC energy and silicon area in the style of ORION /
// Synopsys numbers the paper uses: static (leakage) power per component,
// dynamic energy per micro-architectural event, and a per-technique area
// model calibrated against the paper's Table 2. All electrical constants
// assume the Table 1 operating point: 32 nm, 1.0 V, 2.0 GHz.
package power

import "intellinoc/internal/ecc"

// ClockHz is the simulated clock frequency (Table 1).
const ClockHz = 2.0e9

// Params holds leakage powers (watts) and per-event energies (joules).
type Params struct {
	// Static power per component.
	BufLeakPerSlot   float64 // one flit slot of router buffering
	XbarLeak         float64 // crossbar + output drivers
	CRCLeak          float64 // injection/ejection CRC logic
	SECDEDLeak       float64 // incremental SECDED encoder/decoder bank
	DECTEDLeak       float64 // incremental DECTED extension circuitry
	BSTLeak          float64 // unified buffer state table (never gated)
	ChanLeakPerStage float64 // one tri-state channel-buffer stage
	MFACCtrlLeak     float64 // per-router MFAC controllers
	CtrlLeak         float64 // RC/VA/SA allocators and misc control
	QTableLeak       float64 // RL state-action table storage
	// GateEfficiency is the fraction of gateable leakage saved while a
	// router is power-gated. The BST, channels and MFAC controllers
	// stay powered (separate supply, Section 3.1.2).
	GateEfficiency float64

	// Dynamic energy per event. Buffer access energy scales with the
	// per-VC buffer depth (larger arrays cost more per access) — the
	// physical reason iDEAL/EB-style designs save dynamic power by
	// shrinking or removing router buffers (paper Section 2).
	EBufWriteBase    float64
	EBufWritePerSlot float64 // × per-VC buffer depth
	EBufReadBase     float64
	EBufReadPerSlot  float64
	EXbar            float64
	ELinkHop         float64 // driving the inter-router wire, per hop
	EChanStage       float64 // one tri-state channel-buffer stage
	ECRCCheck        float64
	ESECDEDEnc       float64
	ESECDEDDec       float64
	EDECTEDEnc       float64
	EDECTEDDec       float64
	ERLStep          float64 // one Q-table lookup+update (paper: 0.16 pJ / step)
	EWakeup          float64 // power-gating wake-up energy
}

// BufWriteEnergy returns the per-write energy for a buffer of the given
// per-VC depth.
func (p Params) BufWriteEnergy(slotsPerVC int) float64 {
	return p.EBufWriteBase + p.EBufWritePerSlot*float64(slotsPerVC)
}

// BufReadEnergy returns the per-read energy for a buffer of the given
// per-VC depth.
func (p Params) BufReadEnergy(slotsPerVC int) float64 {
	return p.EBufReadBase + p.EBufReadPerSlot*float64(slotsPerVC)
}

// DefaultParams returns the 32 nm calibration documented in DESIGN.md.
func DefaultParams() Params {
	const (
		mW = 1e-3
		pJ = 1e-12
	)
	return Params{
		BufLeakPerSlot:   0.25 * mW,
		XbarLeak:         4.0 * mW,
		CRCLeak:          0.3 * mW,
		SECDEDLeak:       2.2 * mW,
		DECTEDLeak:       2.0 * mW,
		BSTLeak:          0.6 * mW,
		ChanLeakPerStage: 0.06 * mW,
		MFACCtrlLeak:     0.25 * mW,
		CtrlLeak:         2.5 * mW,
		QTableLeak:       0.9 * mW,
		GateEfficiency:   0.95,

		EBufWriteBase:    0.15 * pJ,
		EBufWritePerSlot: 0.15 * pJ,
		EBufReadBase:     0.10 * pJ,
		EBufReadPerSlot:  0.10 * pJ,
		EXbar:            1.00 * pJ,
		ELinkHop:         0.30 * pJ,
		EChanStage:       0.03 * pJ,
		ECRCCheck:        0.10 * pJ,
		ESECDEDEnc:       0.15 * pJ,
		ESECDEDDec:       0.20 * pJ,
		EDECTEDEnc:       0.30 * pJ,
		EDECTEDDec:       0.45 * pJ,
		ERLStep:          0.16 * pJ,
		EWakeup:          25.0 * pJ,
	}
}

// RouterConfig describes the static structure of one router for leakage
// purposes. Fields are totals across all five ports.
type RouterConfig struct {
	BufferSlots   int // router buffer slots (VCs × depth × ports)
	SlotsPerVC    int // per-VC buffer depth (sets buffer access energy)
	ChannelStages int // channel-buffer stages attached to this router
	// ElasticChannel stages (EB flip-flops) leak and switch ~2x the
	// tri-state repeater stages of iDEAL/MFAC channels.
	ElasticChannel bool
	HasMFACCtrl    bool
	HasBST         bool
	HasQTable      bool
}

// StaticPower returns the leakage power of a router in the given dynamic
// state: active ECC scheme and power-gating status.
func (p Params) StaticPower(cfg RouterConfig, scheme ecc.Scheme, gated bool) float64 {
	// Gateable portion: buffers, crossbar, allocators, ECC hardware.
	gateable := float64(cfg.BufferSlots)*p.BufLeakPerSlot + p.XbarLeak + p.CtrlLeak
	switch scheme {
	case ecc.SchemeCRC:
		gateable += p.CRCLeak
	case ecc.SchemeSECDED:
		gateable += p.CRCLeak + p.SECDEDLeak
	case ecc.SchemeDECTED:
		gateable += p.CRCLeak + p.SECDEDLeak + p.DECTEDLeak
	}
	if gated {
		gateable *= 1 - p.GateEfficiency
	}
	// Always-on portion: channel stages, MFAC controllers, BST, Q-table.
	stageLeak := p.ChanLeakPerStage
	if cfg.ElasticChannel {
		stageLeak *= 2
	}
	alwaysOn := float64(cfg.ChannelStages) * stageLeak
	if cfg.HasMFACCtrl {
		alwaysOn += p.MFACCtrlLeak
	}
	if cfg.HasBST {
		alwaysOn += p.BSTLeak
	}
	if cfg.HasQTable {
		alwaysOn += p.QTableLeak
	}
	return gateable + alwaysOn
}

// EventCounts tallies dynamic-energy events over some interval.
type EventCounts struct {
	BufWrites     uint64
	BufReads      uint64
	XbarTraverses uint64
	LinkHops      uint64 // inter-router wire traversals
	ChanStages    uint64 // channel-buffer stages traversed
	CRCChecks     uint64
	SECDEDEncodes uint64
	SECDEDDecodes uint64
	DECTEDEncodes uint64
	DECTEDDecodes uint64
	RLSteps       uint64
	Wakeups       uint64
}

// DynamicEnergy converts event counts to joules for a router whose per-VC
// buffer depth is slotsPerVC.
func (p Params) DynamicEnergy(c EventCounts, slotsPerVC int) float64 {
	return p.dynamicEnergy(&c, slotsPerVC, false)
}

// dynamicEnergy takes its arguments by pointer: it runs several times per
// simulated cycle per router, and copying the 27-field Params (plus the
// counts) per call showed up as runtime.duffcopy in profiles.
func (p *Params) dynamicEnergy(c *EventCounts, slotsPerVC int, elastic bool) float64 {
	stage := p.EChanStage
	if elastic {
		stage *= 2.5 // master-slave flip-flops vs tri-state repeaters
	}
	return float64(c.BufWrites)*p.BufWriteEnergy(slotsPerVC) +
		float64(c.BufReads)*p.BufReadEnergy(slotsPerVC) +
		float64(c.XbarTraverses)*p.EXbar +
		float64(c.LinkHops)*p.ELinkHop +
		float64(c.ChanStages)*stage +
		float64(c.CRCChecks)*p.ECRCCheck +
		float64(c.SECDEDEncodes)*p.ESECDEDEnc +
		float64(c.SECDEDDecodes)*p.ESECDEDDec +
		float64(c.DECTEDEncodes)*p.EDECTEDEnc +
		float64(c.DECTEDDecodes)*p.EDECTEDDec +
		float64(c.RLSteps)*p.ERLStep +
		float64(c.Wakeups)*p.EWakeup
}

// Meter integrates a router's static and dynamic energy over a run.
//
// Dynamic energy is recorded through one typed recorder per event kind
// the simulator produces (BufWrite, Switch, Link, CRC, Wakeup, RLStep).
// Each bumps only its own Events counters and adds its energy to
// DynamicJoules with a single +=. That is bit-identical to summing all
// twelve count×energy terms of an EventCounts in field order and adding
// the sum, because every per-event energy is finite and >= 0: a
// zero-count term is +0, the partial sums are never -0, and x + (+0) == x
// for every such x. What remains are the nonzero terms in the same
// left-to-right order, added at the same points of the tick. (The
// argument assumes the compiler does not fuse a multiply into the
// following add; amd64 builds at the default GOAMD64=v1 never do.)
type Meter struct {
	params        Params
	cfg           RouterConfig
	StaticJoules  float64
	DynamicJoules float64
	Events        EventCounts

	// Per-event energies fixed by the router structure, precomputed so
	// the recorders don't re-derive them on every call. The values are
	// the exact same float64s the formulas produce.
	eBufWrite  float64
	eSwitch    float64 // buffer read + crossbar traversal
	eChanStage float64
}

// NewMeter returns a meter for a router with the given structure.
func NewMeter(params Params, cfg RouterConfig) *Meter {
	m := &Meter{params: params, cfg: cfg}
	m.eBufWrite = params.BufWriteEnergy(cfg.SlotsPerVC)
	m.eSwitch = params.BufReadEnergy(cfg.SlotsPerVC) + params.EXbar
	m.eChanStage = params.EChanStage
	if cfg.ElasticChannel {
		m.eChanStage *= 2.5
	}
	return m
}

// TickStatic integrates `cycles` clock cycles of leakage in the given
// dynamic state.
func (m *Meter) TickStatic(cycles uint64, scheme ecc.Scheme, gated bool) {
	m.StaticJoules = m.StaticAfter(cycles, scheme, gated)
}

// StaticAfter returns StaticJoules as TickStatic(cycles, scheme, gated)
// would leave it, without storing it. A reader that needs the leakage so
// far uses it instead of TickStatic: banking a partial span would split
// one term into two and change the run's rounding.
func (m *Meter) StaticAfter(cycles uint64, scheme ecc.Scheme, gated bool) float64 {
	watts := m.params.StaticPower(m.cfg, scheme, gated)
	return m.StaticJoules + watts*float64(cycles)/ClockHz
}

// BufWrite records one flit written into a router buffer.
func (m *Meter) BufWrite() {
	m.Events.BufWrites++
	m.DynamicJoules += m.eBufWrite
}

// Switch records one flit read from a router buffer and sent through
// the crossbar.
func (m *Meter) Switch() {
	m.Events.BufReads++
	m.Events.XbarTraverses++
	m.DynamicJoules += m.eSwitch
}

// Link records one flit's link traversal: hops wire traversals (the
// first attempt plus every hop-level retransmission), each through
// stages channel-buffer stages, with the per-hop encode and decode of
// scheme's block code (SECDED or DECTED; CRC and none have none).
func (m *Meter) Link(hops, stages uint64, scheme ecc.Scheme) {
	p := &m.params
	h := float64(hops)
	m.Events.LinkHops += hops
	m.Events.ChanStages += hops * stages
	// Add the terms one at a time, left to right (not e += a + b): the
	// exactness argument in the Meter doc needs the chain's order.
	e := h*p.ELinkHop + float64(hops*stages)*m.eChanStage
	switch scheme {
	case ecc.SchemeSECDED:
		m.Events.SECDEDEncodes += hops
		m.Events.SECDEDDecodes += hops
		e = e + h*p.ESECDEDEnc + h*p.ESECDEDDec
	case ecc.SchemeDECTED:
		m.Events.DECTEDEncodes += hops
		m.Events.DECTEDDecodes += hops
		e = e + h*p.EDECTEDEnc + h*p.EDECTEDDec
	}
	m.DynamicJoules += e
}

// CRC records one CRC encode or check at an injection or ejection port.
func (m *Meter) CRC() {
	m.Events.CRCChecks++
	m.DynamicJoules += m.params.ECRCCheck
}

// Wakeup records one power-gating wake-up.
func (m *Meter) Wakeup() {
	m.Events.Wakeups++
	m.DynamicJoules += m.params.EWakeup
}

// RLStep records one Q-table lookup and update.
func (m *Meter) RLStep() {
	m.Events.RLSteps++
	m.DynamicJoules += m.params.ERLStep
}

// TotalJoules returns static + dynamic energy so far.
func (m *Meter) TotalJoules() float64 { return m.StaticJoules + m.DynamicJoules }

// MeanPower returns the average power over an elapsed cycle count.
func (m *Meter) MeanPower(cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return m.TotalJoules() / (float64(cycles) / ClockHz)
}
