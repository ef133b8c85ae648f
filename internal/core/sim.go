package core

import (
	"fmt"

	"intellinoc/internal/noc"
	"intellinoc/internal/rl"
	"intellinoc/internal/traffic"
)

// SimConfig is the experiment-level configuration shared across
// techniques. Zero fields take the Table 1 defaults.
type SimConfig struct {
	Width, Height int
	// Topology selects the fabric family (see noc.Config.Topology): ""
	// or "mesh", "torus", "chiplet[:WxH]", "routerless". Like VCOverride
	// this changes results, so it is digest-visible when set; omitempty
	// keeps every pre-existing mesh spec's digest byte-identical.
	Topology string `json:"topology,omitempty"`
	// TimeStepCycles is the controller decision interval (paper default
	// 1000; Fig. 17a sweeps it).
	TimeStepCycles int
	// BaseErrorRate is the thermally-coupled per-bit rate at the
	// reference operating point. The default, 4e-5, is the paper's
	// regime scaled up so that error statistics remain meaningful over
	// our much shorter trace lengths (see DESIGN.md).
	BaseErrorRate float64
	// ForcedErrorRate, when > 0, injects at exactly this rate
	// regardless of temperature (Fig. 17b).
	ForcedErrorRate float64
	Seed            int64
	// MaxCycles bounds a run (default 20M).
	MaxCycles int64
	// VerifyPayloads routes every protected hop through the bit-exact
	// ECC codecs.
	VerifyPayloads bool
	// ControlFaultRate and QTableFaultRate extend fault injection to
	// the control circuitry and RL state-action tables — the paper's
	// stated future work (Section 6). Control faults are
	// parity-detected routing-table upsets per route computation;
	// Q-table faults are soft bit flips per controller decision.
	ControlFaultRate float64
	QTableFaultRate  float64

	// DependencyWindow controls Netrace-style closed-loop injection:
	// each core may have at most this many packets outstanding, with
	// trace gaps preserved as compute time. 0 selects the default of 1
	// (serial per-core dependency chains, which is what makes execution
	// time respond to network performance as in Fig. 9); -1 selects
	// open-loop replay (used by injection-rate sweeps).
	DependencyWindow int

	// RL hyper-parameters (paper-tuned defaults: α=0.1, γ=0.9, ε=0.05).
	Alpha, Gamma, Epsilon float64
	// OnPolicySARSA swaps the paper's Q-learning for on-policy SARSA
	// (ext-sarsa experiment).
	OnPolicySARSA bool

	// VCOverride and BufDepthOverride, when positive, replace the
	// technique's Table-1 router microarchitecture (virtual channels per
	// port, buffer slots per VC) — the design-space axes cmd/explore
	// walks. Unlike Shards these change results, so they must be
	// digest-visible when set; omitempty keeps every pre-existing spec's
	// digest (and therefore the golden results) byte-identical when they
	// are zero.
	VCOverride       int `json:"vc_override,omitempty"`
	BufDepthOverride int `json:"buf_depth_override,omitempty"`

	// Shards steps each network with this many parallel shards (see
	// noc.Config.Shards); 0 or 1 means one shard, with no worker
	// goroutines. Results are
	// bit-identical at any shard count, which is why the field is
	// excluded from JSON: experiment-spec digests, golden results, and
	// harness dedup must not distinguish runs by execution strategy.
	Shards int `json:"-"`
}

// withDefaults fills in unset fields.
func (c SimConfig) withDefaults() SimConfig {
	if c.Width == 0 {
		c.Width = 8
	}
	if c.Height == 0 {
		c.Height = 8
	}
	if c.TimeStepCycles == 0 {
		c.TimeStepCycles = 1000
	}
	if c.BaseErrorRate == 0 {
		c.BaseErrorRate = 4e-5
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 20_000_000
	}
	if c.Alpha == 0 {
		c.Alpha = 0.1
	}
	if c.Gamma == 0 {
		c.Gamma = 0.9
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.05
	}
	switch {
	case c.DependencyWindow == 0:
		c.DependencyWindow = 1
	case c.DependencyWindow < 0:
		c.DependencyWindow = 0 // open loop
	}
	return c
}

// networkConfig translates a defaulted SimConfig into tech's network
// config: the technique's Table-1 preset with the run-level knobs and
// the router-microarchitecture overrides applied. Simulate, Pretrain
// and RunAblation all build through it, so a pre-trained policy sees the
// same hardware its evaluation runs use.
func (c SimConfig) networkConfig(tech Technique) noc.Config {
	cfg := tech.NetworkConfig(c.Width, c.Height)
	cfg.Topology = c.Topology
	if c.VCOverride > 0 {
		cfg.VCs = c.VCOverride
	}
	if c.BufDepthOverride > 0 {
		cfg.BufDepth = c.BufDepthOverride
	}
	cfg.TimeStepCycles = c.TimeStepCycles
	cfg.BaseErrorRate = c.BaseErrorRate
	cfg.ForcedErrorRate = c.ForcedErrorRate
	cfg.Seed = c.Seed
	cfg.VerifyPayloads = c.VerifyPayloads
	cfg.DependencyWindow = c.DependencyWindow
	cfg.ControlFaultRate = c.ControlFaultRate
	cfg.Shards = c.Shards
	return cfg
}

// rlConfig derives the Q-learning configuration.
func (c SimConfig) rlConfig() rl.Config {
	return rl.Config{Actions: noc.NumModes, Alpha: c.Alpha, Gamma: c.Gamma,
		Epsilon: c.Epsilon, Seed: c.Seed + 31,
		DefaultAction: int(noc.ModeCRC)}
}

// bufRLConfig derives the buffer domain's Q-learning configuration: same
// hyper-parameters, a distinct seed offset so the two domains' exploration
// streams never overlap, and the even split as the default action.
func (c SimConfig) bufRLConfig() rl.Config {
	return rl.Config{Actions: noc.NumBufferActions, Alpha: c.Alpha, Gamma: c.Gamma,
		Epsilon: c.Epsilon, Seed: c.Seed + 59,
		DefaultAction: noc.BufActionEven}
}

// Policy is a pre-trained per-router control policy (the paper pre-trains
// on blackscholes before evaluating the other benchmarks). It may carry
// one decision domain (mode selection) or two (mode + RACE-style buffer
// allocation, TechIntelliNoCBuf).
type Policy struct {
	ctrl *RLController
}

// MaxTableSize exposes the largest learned Q-table across all domains.
func (p *Policy) MaxTableSize() int { return p.ctrl.MaxTableSize() }

// HasBufferDomain reports whether the policy carries buffer agents.
func (p *Policy) HasBufferDomain() bool { return p.ctrl.HasBufferAgents() }

func controllerFor(tech Technique, sim SimConfig, cfg noc.Config, policy *Policy) (noc.Controller, noc.Mode) {
	switch tech {
	case TechCPD:
		return CPDController{}, noc.ModeSECDED
	case TechIntelliNoC, TechIntelliNoCBuf:
		var ctrl *RLController
		if policy != nil {
			ctrl = policy.ctrl.Clone(sim.Seed + 17)
			ctrl.SetEpsilon(sim.withDefaults().Epsilon)
		} else {
			ctrl = NewRLController(cfg.Nodes(), sim.rlConfig())
		}
		if tech == TechIntelliNoCBuf && !ctrl.HasBufferAgents() {
			ctrl.EnableBufferAgents(sim.withDefaults().bufRLConfig())
		}
		ctrl.QTableFaultRate = sim.QTableFaultRate
		ctrl.OnPolicy = sim.OnPolicySARSA
		// Paper: "The operation modes of all routers are initialized
		// to mode 1."
		return ctrl, noc.ModeCRC
	default:
		return noc.StaticController(noc.ModeSECDED), noc.ModeSECDED
	}
}

// Pretrain trains an IntelliNoC policy on the blackscholes workload model
// (the paper's tuning/pre-training benchmark) for the given number of
// epochs and returns it for reuse across evaluation runs.
func Pretrain(sim SimConfig, epochs, packetsPerEpoch int) (*Policy, error) {
	return PretrainTechnique(TechIntelliNoC, sim, epochs, packetsPerEpoch, nil)
}

// PretrainTechnique is Pretrain generalized over the RL techniques and
// warm starting: tech selects the agent domains (TechIntelliNoCBuf adds
// the buffer agents), and a non-nil warm policy seeds training from its
// tables instead of zero-Q agents (the policy zoo's nearest-scenario
// transfer). The warm policy must carry matching domains.
func PretrainTechnique(tech Technique, sim SimConfig, epochs, packetsPerEpoch int, warm *Policy) (*Policy, error) {
	if tech != TechIntelliNoC && tech != TechIntelliNoCBuf {
		return nil, fmt.Errorf("core: technique %s has no trainable policy", tech)
	}
	sim = sim.withDefaults()
	cfg := sim.networkConfig(tech)
	cfg.VerifyPayloads = false // training needs no payload bytes

	var ctrl *RLController
	if warm != nil {
		if tech == TechIntelliNoCBuf && !warm.HasBufferDomain() {
			return nil, fmt.Errorf("core: warm-start policy lacks the buffer domain %s trains", tech)
		}
		if tech == TechIntelliNoC && warm.HasBufferDomain() {
			return nil, fmt.Errorf("core: warm-start policy carries a buffer domain %s does not train", tech)
		}
		// The same clone path deployment uses: fresh exploration streams
		// seeded from this scenario, learned tables carried over.
		ctrl = warm.ctrl.Clone(sim.Seed + 17)
		ctrl.SetEpsilon(sim.Epsilon)
	} else {
		ctrl = NewRLController(cfg.Nodes(), sim.rlConfig())
	}
	if tech == TechIntelliNoCBuf && !ctrl.HasBufferAgents() {
		ctrl.EnableBufferAgents(sim.bufRLConfig())
	}
	ctrl.OnPolicy = sim.OnPolicySARSA
	for e := 0; e < epochs; e++ {
		gen, err := traffic.NewParsec("blackscholes", sim.Width, sim.Height,
			packetsPerEpoch, sim.Seed+int64(e)*997)
		if err != nil {
			return nil, err
		}
		cfg.Seed = sim.Seed + int64(e)*13
		n, err := noc.New(cfg, gen, ctrl)
		if err != nil {
			return nil, err
		}
		n.SetInitialMode(noc.ModeCRC)
		_, err = n.RunUntilDrained(sim.MaxCycles)
		n.Close()
		if err != nil {
			return nil, fmt.Errorf("core: pre-training epoch %d: %w", e, err)
		}
	}
	return &Policy{ctrl: ctrl}, nil
}

// ParsecWorkload builds the workload model for one PARSEC benchmark. The
// returned generator is its own cursor over a shared, read-only stream
// that traffic.NewParsec generates once per process for each benchmark,
// mesh, packet count and seed, so the runs of a comparison matrix, and
// the pretraining epochs of PretrainTechnique calls that repeat a
// SimConfig, do not regenerate it.
func ParsecWorkload(name string, sim SimConfig, packets int) (traffic.Generator, error) {
	sim = sim.withDefaults()
	return traffic.NewParsec(name, sim.Width, sim.Height, packets, sim.Seed+271)
}
