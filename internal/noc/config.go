package noc

import (
	"fmt"

	"intellinoc/internal/power"
)

// Config describes one simulated network. The five techniques of the
// paper's evaluation (SECDED baseline, EB, CP, CPD, IntelliNoC) are
// expressed purely as configurations plus a Controller; the preset
// constructors live in internal/core.
type Config struct {
	// Topology selects the fabric family: "" or "mesh" (the default),
	// "torus" (dual-network with wraparound and dateline VCs),
	// "chiplet" / "chiplet:WxH" (hierarchical chiplet mesh with
	// network-on-interposer entry nodes; WxH is the cores-per-chiplet
	// tile, default 2x2), or "routerless" (loop-based NoC). Unlike
	// Shards this changes results, so it must stay digest-visible in
	// serialized experiment specs. Width and Height always describe the
	// core grid; chiplets add interposer routers on top of it.
	Topology      string
	Width, Height int

	// Router microarchitecture (Table 1).
	VCs      int // virtual channels per port
	BufDepth int // router-buffer slots per VC ("RB"), at most 64
	// ChannelStages is the per-port channel-buffer storage ("CB"):
	// 0 for the baseline's plain wires, 8 for iDEAL/MFAC channels
	// (two physical links × four stages).
	ChannelStages int
	// HasVAStage is false for EB-style routers, which eliminate the VA
	// pipeline stage (3-stage router).
	HasVAStage bool
	// ElasticChannel marks EB-style flip-flop channel stages, which
	// leak and switch more than iDEAL/MFAC tri-state repeaters.
	ElasticChannel bool
	// DynamicChannelAlloc lets a channel deliver past a blocked head
	// flit (the unified-BST dynamic buffer allocation of Section 3.1.2)
	// to beat head-of-line blocking.
	DynamicChannelAlloc bool

	// Power management.
	PowerGating bool // gate idle routers (CP-style)
	// Bypass enables the stress-relaxing bypass route (IntelliNoC
	// mode 0): gated routers keep forwarding through MFACs.
	Bypass bool
	// IdleGateCycles is the idle streak after which a CP-style router
	// gates itself; WakeupCycles is the wake latency paid when traffic
	// arrives at a gated router with no bypass.
	IdleGateCycles int
	WakeupCycles   int
	// MFAC marks the multi-function channel hardware (controller
	// leakage/area, retransmission-from-channel capability).
	MFAC bool
	// RLTable accounts for the Q-table storage (power/area) and RL
	// step energy.
	RLTable bool

	// Flit format (Table 1: 4 × 128-bit flits).
	FlitBits int

	// Control loop.
	TimeStepCycles        int // controller decision interval
	ThermalIntervalCycles int

	// Fault injection.
	BaseErrorRate float64 // per-bit rate at the reference point
	// ForcedErrorRate, when positive, bypasses the thermal coupling and
	// injects at exactly this per-bit rate (Fig. 17b artificial sweep).
	ForcedErrorRate float64
	// MaxPacketRetries bounds end-to-end retransmissions per packet.
	MaxPacketRetries int

	// ControlFaultRate extends the fault model to the control circuitry
	// (the paper's stated future work): each route computation suffers
	// a parity-detected routing-table/BST upset with this probability,
	// costing a recompute penalty of controlFaultPenalty cycles. Faults
	// are detected-and-recovered (the tables are parity-protected), so
	// they cost latency and energy but never misroute.
	ControlFaultRate float64

	// DependencyWindow > 0 makes injection closed-loop in the style of
	// Netrace's dependency-driven replay: each core may have at most
	// this many packets outstanding, and consecutive packets from a
	// core preserve their trace spacing as *compute* gaps between
	// injection starts. Slow networks therefore stretch execution time
	// (Fig. 9's metric); 0 replays the trace open-loop.
	DependencyWindow int

	// VerifyPayloads carries real payload bytes through the bit-exact
	// ECC codecs on every hop. Slower; used by tests and examples.
	VerifyPayloads bool

	// Shards is the number of shards the tick runs its parallel phases
	// over: contiguous router-id ranges that ignore topology geometry,
	// each with its routers' channels and NICs. With more than one, a
	// bounded worker pool runs channel delivery and the staged link-push
	// drain in parallel, two barriers per cycle, while the router
	// pipelines and every other cross-router step run in router-index
	// order on the stepping goroutine (see shard.go). 0 or 1 means one
	// shard, run inline with no worker goroutines. Results, fingerprints,
	// and event streams are bit-identical at any shard count — the knob
	// trades goroutines for wall-clock only. A Network with more than one
	// shard owns worker goroutines; call Close when done with it.
	Shards int

	// DisableIdleFastForward forces the simulator to step quiescent
	// stretches cycle by cycle instead of jumping to the next event. The
	// fast-forward is exact — results are bit-identical either way (the
	// determinism tests cross-check both paths) — so this knob exists
	// only for those tests and for debugging.
	DisableIdleFastForward bool

	Seed int64
}

// controlFaultPenalty is the recompute delay, in cycles, of a route
// computation hit by a control fault (see Config.ControlFaultRate).
const controlFaultPenalty = 2

// MaxVCs reports the compile-time bound on virtual channels per port,
// so design-space tooling can reject impossible lattices up front.
func MaxVCs() int { return maxVCs }

// Validate checks the configuration for structural errors.
func (c *Config) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("noc: invalid mesh %dx%d", c.Width, c.Height)
	case c.VCs <= 0:
		return fmt.Errorf("noc: need at least one VC")
	case c.VCs > maxVCs:
		return fmt.Errorf("noc: at most %d VCs supported", maxVCs)
	case c.BufDepth <= 0:
		return fmt.Errorf("noc: need router buffer depth >= 1")
	case c.BufDepth > maxBufDepth:
		return fmt.Errorf("noc: at most %d router-buffer slots per VC supported", maxBufDepth)
	case c.ChannelStages < 0:
		return fmt.Errorf("noc: negative channel stages")
	case c.FlitBits <= 0:
		return fmt.Errorf("noc: flit size must be positive")
	case c.TimeStepCycles <= 0:
		return fmt.Errorf("noc: time step must be positive")
	case c.ThermalIntervalCycles <= 0:
		return fmt.Errorf("noc: thermal interval must be positive")
	case c.Bypass && c.ChannelStages == 0:
		return fmt.Errorf("noc: bypass requires channel storage")
	case c.ChannelStages > 0 && c.VCs > 1 && !c.DynamicChannelAlloc:
		// A strictly-FIFO shared channel in front of multiple VCs can
		// wedge one VC's wormhole behind another's blocked head; the
		// unified-BST dynamic allocation (Section 3.1.2) is what makes
		// channel storage deadlock-free.
		return fmt.Errorf("noc: channel buffers with multiple VCs require dynamic channel allocation")
	case c.PowerGating && !c.Bypass && c.WakeupCycles <= 0:
		return fmt.Errorf("noc: power gating without bypass needs a wakeup latency")
	case c.MaxPacketRetries < 0:
		return fmt.Errorf("noc: negative retry bound")
	case c.Shards < 0:
		return fmt.Errorf("noc: negative shard count")
	}
	topo, err := NewTopology(c)
	if err != nil {
		return err
	}
	if classes := topo.VCClasses(); c.VCs < classes {
		return fmt.Errorf("noc: topology %s needs %d VCs for dateline deadlock avoidance, got %d",
			topo.Name(), classes, c.VCs)
	}
	return nil
}

// Nodes returns the total router count, including any auxiliary routers
// the topology adds (e.g. chiplet interposer nodes). Falls back to the
// core count for unparseable topology specs (Validate rejects those).
func (c *Config) Nodes() int {
	if t, err := NewTopology(c); err == nil {
		return t.Nodes()
	}
	return c.Width * c.Height
}

// Cores returns the NIC-bearing router count (the traffic endpoints).
func (c *Config) Cores() int { return c.Width * c.Height }

// routerPowerConfig derives the leakage structure of one router.
func (c *Config) routerPowerConfig() power.RouterConfig {
	return power.RouterConfig{
		BufferSlots:    c.VCs * c.BufDepth * NumPorts,
		SlotsPerVC:     c.BufDepth,
		ChannelStages:  c.ChannelStages * NumPorts,
		ElasticChannel: c.ElasticChannel,
		HasMFACCtrl:    c.MFAC,
		HasBST:         c.Bypass,
		HasQTable:      c.RLTable,
	}
}

// Observation is what a Controller sees about one router at a time-step
// boundary: the 16-feature state vector of Fig. 7 plus the reward inputs
// of eq. 1 and the error histogram CPD's heuristic uses.
type Observation struct {
	Router int
	Cycle  int64
	// Features: [0..4] input-link utilization per port, [5..9] buffer
	// utilization per port, [10..14] output-link utilization per port,
	// [15] router temperature in °C — Fig. 7's exact layout.
	Features [16]float64
	// AvgLatencyCycles is the mean end-to-end latency of packets
	// ejected at this router during the last window (>=1).
	AvgLatencyCycles float64
	// PowerMilliwatts is the router's mean power over the window.
	PowerMilliwatts float64
	// AgingFactor is eq. 7's 1 + ΔVth/Vth0.
	AgingFactor float64
	// ErrorHistogram counts link transmissions by sampled error bits:
	// [0]=clean, [1]=1-bit, [2]=2-bit, [3]=3 or more.
	ErrorHistogram [4]uint64
	// WinHopRetransmits counts per-hop retransmissions at this router
	// during the window — the congestion/reliability pressure signal the
	// RACE-style buffer agent learns from.
	WinHopRetransmits uint64
}

// Controller selects each router's operation mode at every time step.
// Implementations include the static baseline/EB/CP policies, CPD's
// error-level heuristic, and the per-router Q-learning agents — all in
// internal/core.
type Controller interface {
	// NextMode returns the mode the router should apply for the coming
	// time step, given the observation of the one that just ended.
	NextMode(obs Observation) Mode
}

// Buffer-allocation actions (RACE-style): at each time-step boundary a
// BufferController may repartition every credited output port's
// channel-buffer stages among its VCs. Router-buffer slots (BufDepth per
// VC) are never reassigned, so each VC always keeps >= BufDepth credits
// of private storage and the wormhole deadlock-freedom argument of
// Section 3.1.2 is untouched — only the MFAC channel stages move.
const (
	// BufActionEven restores the static vcCredits split (the behavior of
	// every non-buffer-RL technique).
	BufActionEven = iota
	// BufActionDemand apportions channel stages proportionally to each
	// VC's window flit traffic (largest-remainder; ties to lower VCs).
	BufActionDemand
	// BufActionConcentrate gives all channel stages to the single
	// busiest VC (tie → lowest), starving idle VCs down to their
	// router-buffer floor.
	BufActionConcentrate
	// BufActionReserve splits channel stages evenly across only the VCs
	// that moved traffic this window (none moved → even over all).
	BufActionReserve
	// NumBufferActions is the buffer agent's action-space size.
	NumBufferActions
)

// BufferController is the optional second decision domain a Controller
// may implement: per-router buffer allocation actions on top of mode
// selection. NextBufferAction returns one of the BufAction* constants, or
// a negative value for "no opinion" — the network then leaves the static
// split untouched, consuming no randomness, so controllers without a
// buffer domain stay bit-identical to pre-buffer-RL builds.
type BufferController interface {
	Controller
	NextBufferAction(obs Observation) int
}

// StaticController always answers the same mode, with gating decisions
// left to the traffic-driven power-gating machinery.
type StaticController Mode

// NextMode implements Controller.
func (s StaticController) NextMode(Observation) Mode { return Mode(s) }
