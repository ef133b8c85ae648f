package diffcheck

import (
	"fmt"
	"math/rand"

	"intellinoc/internal/noc"
	"intellinoc/internal/traffic"
)

// Scenario is one fuzzed simulation setup: a network configuration, a
// synthetic workload, and the seeds that make both reproducible. A
// scenario is a pure function of its seed (see ScenarioForSeed), so the
// corpus and the fuzz findings only ever need to record the seed.
type Scenario struct {
	Seed int64
	Cfg  noc.Config
	Traf traffic.SyntheticConfig
	// Mode is the static controller mode, or -1 for no controller
	// (the network's built-in default policy).
	Mode noc.Mode
	// MaxCycles bounds every check's run; a healthy scenario drains
	// orders of magnitude earlier, so hitting the bound is itself a
	// finding (livelock/deadlock).
	MaxCycles int64
}

// ScenarioForSeed derives a valid scenario deterministically from one
// seed. The sampler covers the configuration axes that have historically
// hidden divergence bugs: channel storage with dynamic allocation,
// power gating with and without the bypass path, error injection heavy
// enough to exercise hop and end-to-end retransmission, control faults,
// and closed-loop injection.
func ScenarioForSeed(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	pick := func(vals ...int) int { return vals[rng.Intn(len(vals))] }

	cfg := noc.Config{
		Width:                 2 + rng.Intn(3),
		Height:                2 + rng.Intn(3),
		VCs:                   pick(1, 2, 4),
		BufDepth:              pick(1, 2, 4),
		HasVAStage:            rng.Intn(4) != 0,
		FlitBits:              128,
		TimeStepCycles:        pick(200, 500),
		ThermalIntervalCycles: 100,
		MaxPacketRetries:      pick(0, 2, 8),
		Seed:                  rng.Int63(),
	}

	// Error injection: clean, thermally coupled, or forced-heavy.
	switch rng.Intn(3) {
	case 1:
		cfg.BaseErrorRate = 4e-5
	case 2:
		cfg.ForcedErrorRate = []float64{1e-4, 1e-3}[rng.Intn(2)]
	}

	// Power/channel microarchitecture family.
	switch rng.Intn(3) {
	case 1: // CP-style gating, no channel storage
		cfg.PowerGating = true
		cfg.WakeupCycles = 8
		cfg.IdleGateCycles = pick(16, 64)
	case 2: // IntelliNoC-style MFAC channels with bypass
		cfg.ChannelStages = 8
		cfg.DynamicChannelAlloc = true
		cfg.MFAC = true
		cfg.Bypass = true
		cfg.PowerGating = true
		cfg.WakeupCycles = 8
		cfg.IdleGateCycles = pick(16, 64)
	}

	if rng.Intn(4) == 0 {
		cfg.ControlFaultRate = 1e-3
	}
	if rng.Intn(3) == 0 {
		cfg.DependencyWindow = 2
	}

	// Static operation mode; -1 leaves the default controller.
	mode := noc.Mode(-1)
	if rng.Intn(2) == 0 {
		modes := []noc.Mode{noc.ModeCRC, noc.ModeSECDED, noc.ModeDECTED, noc.ModeRelaxed}
		if cfg.Bypass {
			modes = append(modes, noc.ModeBypass)
		}
		mode = modes[rng.Intn(len(modes))]
	}

	patterns := []traffic.Pattern{traffic.Uniform, traffic.Neighbor, traffic.Hotspot}
	if cfg.Width >= 3 {
		// Tornado degenerates to all-self-addressed on a width-2 mesh
		// (NewSynthetic rejects it; see its progress probe).
		patterns = append(patterns, traffic.Tornado)
	}
	if cfg.Width == cfg.Height {
		patterns = append(patterns, traffic.Transpose)
	}
	traf := traffic.SyntheticConfig{
		Width: cfg.Width, Height: cfg.Height,
		Pattern:       patterns[rng.Intn(len(patterns))],
		InjectionRate: 0.005 + rng.Float64()*0.045,
		PacketFlits:   pick(1, 4),
		Packets:       80 + rng.Intn(200),
		Seed:          rng.Int63(),
	}
	if traf.Pattern == traffic.Hotspot {
		traf.HotspotFraction = 0.5
	}

	return Scenario{Seed: seed, Cfg: cfg, Traf: traf, Mode: mode, MaxCycles: 1_000_000}
}

// TopoScenarioForSeed derives a topology-family scenario. The family is
// addressed by the seed itself — seed % 5 selects mesh, torus, chiplet,
// routerless, or a degenerate 1×N / N×1 line mesh — so corpus seeds are
// self-documenting about which fabric they lock. The microarch sampler
// deliberately includes the VCs=3 / ChannelStages=4 combination whose
// non-divisible credit split used to leak remainder stages.
func TopoScenarioForSeed(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	pick := func(vals ...int) int { return vals[rng.Intn(len(vals))] }

	cfg := noc.Config{
		VCs:                   pick(2, 4),
		BufDepth:              pick(1, 2, 4),
		HasVAStage:            rng.Intn(4) != 0,
		FlitBits:              128,
		TimeStepCycles:        pick(200, 500),
		ThermalIntervalCycles: 100,
		MaxPacketRetries:      pick(0, 2, 8),
		Seed:                  rng.Int63(),
	}
	switch uint64(seed) % 5 {
	case 0:
		cfg.Topology = noc.TopologyMesh
		cfg.Width, cfg.Height = 2+rng.Intn(3), 2+rng.Intn(3)
	case 1:
		cfg.Topology = noc.TopologyTorus
		cfg.Width, cfg.Height = 2+rng.Intn(3), 2+rng.Intn(3)
	case 2:
		cfg.Topology = noc.TopologyChiplet // default 2x2 tile
		cfg.Width, cfg.Height = pick(2, 4), pick(2, 4)
	case 3:
		cfg.Topology = noc.TopologyRouterless
		cfg.Width, cfg.Height = 2+rng.Intn(3), 2+rng.Intn(3)
	case 4: // degenerate line meshes (the 1×N / N×1 audit)
		if rng.Intn(2) == 0 {
			cfg.Width, cfg.Height = 1, 4+rng.Intn(5)
		} else {
			cfg.Width, cfg.Height = 4+rng.Intn(5), 1
		}
	}

	switch rng.Intn(3) {
	case 1: // non-divisible channel split: VCs=3, CB=4 (remainder stage)
		cfg.VCs = 3
		cfg.ChannelStages = 4
		cfg.DynamicChannelAlloc = true
		cfg.MFAC = true
	case 2: // MFAC channels with bypass and gating
		cfg.ChannelStages = 8
		cfg.DynamicChannelAlloc = true
		cfg.MFAC = true
		cfg.Bypass = true
		cfg.PowerGating = true
		cfg.WakeupCycles = 8
		cfg.IdleGateCycles = pick(16, 64)
	}

	switch rng.Intn(3) {
	case 1:
		cfg.BaseErrorRate = 4e-5
	case 2:
		cfg.ForcedErrorRate = []float64{1e-4, 1e-3}[rng.Intn(2)]
	}
	if rng.Intn(3) == 0 {
		cfg.DependencyWindow = 2
	}

	mode := noc.Mode(-1)
	if rng.Intn(2) == 0 {
		modes := []noc.Mode{noc.ModeCRC, noc.ModeSECDED, noc.ModeRelaxed}
		if cfg.Bypass {
			modes = append(modes, noc.ModeBypass)
		}
		mode = modes[rng.Intn(len(modes))]
	}

	patterns := []traffic.Pattern{traffic.Uniform, traffic.Hotspot}
	if cfg.Width >= 2 && cfg.Height >= 2 {
		patterns = append(patterns, traffic.Neighbor)
	}
	traf := traffic.SyntheticConfig{
		Width: cfg.Width, Height: cfg.Height,
		Pattern:       patterns[rng.Intn(len(patterns))],
		InjectionRate: 0.005 + rng.Float64()*0.045,
		PacketFlits:   pick(1, 4),
		Packets:       80 + rng.Intn(200),
		Seed:          rng.Int63(),
	}
	if traf.Pattern == traffic.Hotspot {
		traf.HotspotFraction = 0.5
	}

	return Scenario{Seed: seed, Cfg: cfg, Traf: traf, Mode: mode, MaxCycles: 1_000_000}
}

// BigScenarioForSeed derives a large-mesh scenario (32×32 or 64×64) for
// the shardsbig family — the scales where the SoA slabs and per-shard
// delivery staging actually pay, and therefore where their determinism
// bugs would hide. Even seeds force ControlFaultRate > 0. Route
// computation then draws from the fault PRNG, whose order any future
// parallel router pipeline must keep, and each fault delays a route by
// the recompute penalty, which shifts the flit timing the parallel
// delivery and link-drain phases see. Budgets are modest (a few thousand
// packets) because the lockstep comparison runs at checkpoint
// granularity, not per cycle.
func BigScenarioForSeed(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	pick := func(vals ...int) int { return vals[rng.Intn(len(vals))] }

	mesh := pick(32, 64)
	cfg := noc.Config{
		Width: mesh, Height: mesh,
		VCs:                   pick(1, 2),
		BufDepth:              pick(2, 4),
		HasVAStage:            true,
		FlitBits:              128,
		TimeStepCycles:        500,
		ThermalIntervalCycles: 100,
		MaxPacketRetries:      2,
		Seed:                  rng.Int63(),
	}
	if seed%2 == 0 {
		cfg.ControlFaultRate = 1e-3
	}
	if rng.Intn(2) == 0 {
		cfg.BaseErrorRate = 4e-5
	}
	if rng.Intn(3) == 0 { // MFAC channels + bypass + gating at scale
		cfg.ChannelStages = 8
		cfg.DynamicChannelAlloc = true
		cfg.MFAC = true
		cfg.Bypass = true
		cfg.PowerGating = true
		cfg.WakeupCycles = 8
		cfg.IdleGateCycles = 32
	}
	traf := traffic.SyntheticConfig{
		Width: mesh, Height: mesh,
		Pattern:       traffic.Uniform,
		InjectionRate: 0.01 + rng.Float64()*0.02,
		PacketFlits:   4,
		Packets:       1500 + rng.Intn(1000),
		Seed:          rng.Int63(),
	}
	return Scenario{Seed: seed, Cfg: cfg, Traf: traf, Mode: noc.Mode(-1), MaxCycles: 2_000_000}
}

// network builds a fresh network for the scenario, applying mut (may be
// nil) to a copy of the configuration first. Each call constructs its
// own generator — generators are stateful and must never be shared
// between the two sides of a pair.
func (s Scenario) network(mut func(*noc.Config)) (*noc.Network, error) {
	cfg := s.Cfg
	if mut != nil {
		mut(&cfg)
	}
	gen, err := traffic.NewSynthetic(s.Traf)
	if err != nil {
		return nil, fmt.Errorf("diffcheck: building generator: %w", err)
	}
	var ctrl noc.Controller
	if s.Mode >= 0 {
		ctrl = noc.StaticController(s.Mode)
	}
	n, err := noc.New(cfg, gen, ctrl)
	if err != nil {
		return nil, fmt.Errorf("diffcheck: building network: %w", err)
	}
	return n, nil
}

// String renders the scenario compactly for divergence reports.
func (s Scenario) String() string {
	mode := "default"
	if s.Mode >= 0 {
		mode = s.Mode.String()
	}
	topo := s.Cfg.Topology
	if topo == "" {
		topo = noc.TopologyMesh
	}
	return fmt.Sprintf(
		"seed=%d topo=%s mesh=%dx%d vc=%d buf=%d cb=%d gate=%v bypass=%v base-err=%g forced-err=%g ctrl-fault=%g depwin=%d mode=%s pattern=%v rate=%.4f flits=%d packets=%d",
		s.Seed, topo, s.Cfg.Width, s.Cfg.Height, s.Cfg.VCs, s.Cfg.BufDepth, s.Cfg.ChannelStages,
		s.Cfg.PowerGating, s.Cfg.Bypass, s.Cfg.BaseErrorRate, s.Cfg.ForcedErrorRate,
		s.Cfg.ControlFaultRate, s.Cfg.DependencyWindow, mode,
		s.Traf.Pattern, s.Traf.InjectionRate, s.Traf.PacketFlits, s.Traf.Packets)
}
