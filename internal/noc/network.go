package noc

import (
	"math/rand"

	"intellinoc/internal/ecc"
	"intellinoc/internal/fault"
	"intellinoc/internal/power"
	"intellinoc/internal/stats"
	"intellinoc/internal/thermal"
	"intellinoc/internal/traffic"
)

// Network is one simulated NoC instance. It is not safe for concurrent
// use; run one Network per goroutine.
type Network struct {
	cfg  Config
	ctrl Controller
	// bufCtrl is ctrl's optional buffer-allocation domain (probed once at
	// construction). Nil for plain controllers; a negative NextBufferAction
	// answer is equivalent.
	bufCtrl BufferController

	routers []*Router
	nics    []*nic
	gen     *traffic.Peeker

	// topo is the wiring/routing geometry (see topology.go); vcClasses
	// caches its dateline class count and nackBound the retransmission
	// liveness ceiling derived from its diameter.
	topo      Topology
	vcClasses int
	nackBound int64

	// Struct-of-arrays router state: the fields every per-cycle scan
	// touches, pulled out of the pointer-heavy Router structs into flat
	// slabs indexed by router id so shard scans walk contiguous memory
	// and each phase reads one word per router to learn whether the
	// router has work.
	rGated    []bool  // router body power-gated
	rWaking   []int32 // wake-up countdown (0 = not waking)
	rBufCount []int32 // total flits across the router's input VC buffers
	// cpGate marks CP-style idle gating (PowerGating without Bypass).
	// gateAt is then each router's gating deadline: the power check at
	// which it gates if it stays idle (no buffered flit, no channel flit,
	// no pending NIC packet). An idle router's deadline is IdleGateCycles
	// after the last cycle its check found it busy, which is the cycle a
	// buffer drain left it idle (armGate); wake completion re-arms it. The
	// power phase visits an ungated router only once its deadline is due,
	// and a router still busy there drops it (noReady) until the next
	// drain re-arms it. Only an idle router's deadline means anything.
	cpGate bool
	gateAt []int64
	// rBypassMode mirrors Router.mode == ModeBypass (written only by
	// applyMode), so the bypass-design power phase finds the routers
	// that may gate without loading the Router structs.
	rBypassMode []bool
	// staticFrom is the cycle each router's current static-power state
	// began: the unbanked static span is cycle - staticFrom, and
	// flushStatic banks it and restarts the span at the current cycle, so
	// no phase touches idle routers to count their static cycles.
	staticFrom []int64
	// nGated counts the routers with rGated set. rGated changes only in
	// the power phase, whose transitions commit their delta after it, so
	// the gated-cycle total grows by nGated once per tick (k*nGated per
	// fast-forward) instead of by a per-router scan.
	nGated int
	// rOccVC is each router's occupied-VC mask: bit p*VCs+v is set
	// exactly when input VC (p, v) holds a flit, so the SA/VA/RC scans
	// visit only non-empty VCs, in the port-major, VC-minor order of a
	// nested port×VC loop.
	rOccVC []uint64
	// inMinReady holds, per input channel (nodes×NumPorts, row-major by
	// router id), the earliest readyAt among its queued flits, or noReady
	// when the channel is empty or absent. Channel.push/remove keep it
	// exact; the delivery scan reads it instead of the rings. rMinReady
	// is the minimum of each router's row, kept exact by linkPush and
	// refreshMinReady: delivery skips a router whose word lies in the
	// future, and the wake, idle-gate and fast-forward checks read it
	// instead of the row.
	inMinReady []int64
	rMinReady  []int64
	// portOcc mirrors each input port's buffer occupancy (nodes×NumPorts,
	// row-major by router id). winOcc is the matching per-window
	// summed-occupancy counter the RL observation reads, held prepaid:
	// occAdd charges a change of d flits at cycle cy as d*(winEnd-cy),
	// its contribution to every remaining cycle of the window, so at the
	// window's close winOcc is the per-cycle sum with no per-cycle work.
	// Mid-window the sum so far is winOcc - portOcc*(winEnd-cycle)
	// (runningWinOcc). winEnd is the cycle of the next control boundary.
	portOcc []int32
	winOcc  []uint64
	winEnd  int64
	// nicReady is each NIC's eligibility word: the earliest cycle at
	// which injectStep could change anything (noReady while the NIC is
	// empty or waits on its dependency window; a past cycle while it
	// streams a packet). nicWake recomputes it wherever the NIC's queue,
	// window or current packet changes (admission, an end-to-end retry,
	// a window-freeing ejection, a packet's start and its last flit), so
	// the injection phase calls injectStep only where it is <= cy.
	nicReady []int64

	// Slot-indexed router slabs: every per-(router, port, VC) pipeline
	// word, one contiguous network-wide array per field, indexed by
	// vcIndex(id, p, v) = id*NumPorts*VCs + p*VCs + v. Within a router
	// row, p*VCs+v is the rOccVC / request-mask bit, so the SA, VA and RC
	// scans read row[slot] with no division and no pointer walk. Input
	// side: ivcs holds each VC's pipeline record and ring head/length,
	// and vcBuf its BufDepth ring entries (VC i owns
	// vcBuf[i*BufDepth:(i+1)*BufDepth]), so buffers never allocate after
	// New. Output side (p is the output port): credits are the free
	// downstream slots per VC — the flow control when there is no
	// channel storage; with channel buffers, channel occupancy is the
	// back-pressure — with ejection sinks holding the uncredited
	// sentinel; share is each VC's current credit capacity (the static
	// vcCredits split until a BufferController repartitions the channel
	// stages, see applyBufferAction; credits reconverge to it at
	// quiescence); vcBusy marks downstream VCs allocated to a packet of
	// this router (released when the tail departs); winVCFlits counts
	// window transmissions per VC, the demand signal the buffer actions
	// reallocate by. Like rOccVC, every row is written only by its own
	// router's phases — except credits, which switch-allocation pops and
	// bypass forwards return upstream from the coordinator's in-order
	// router-pipeline pass — so the multi-shard phases stay race-free.
	ivcs       []inputVC
	vcBuf      []*Flit
	credits    []int32
	share      []int32
	vcBusy     []bool
	winVCFlits []uint64
	// Port and channel slabs (nodes×NumPorts, row-major by router id):
	// Router.in/out point into inPorts/outPorts, or are nil where the
	// topology wires no link; chans holds each link's channel at its
	// receiving (router, port).
	inPorts  []inputPort
	outPorts []outputPort
	chans    []Channel

	injector *fault.Injector
	rng      *rand.Rand
	// payloadRng drives everything that exists only when VerifyPayloads
	// is on (payload byte fill, codec upset-bit placement). Keeping it a
	// separate stream means the knob cannot perturb n.rng, so a seeded
	// run's fault outcomes are bit-identical with the codecs on or off.
	payloadRng *rand.Rand
	grid       *thermal.Grid
	aging      fault.AgingParams
	wear       []fault.Wear
	meters     []*power.Meter
	lastTJ     []float64 // meter joules at last thermal step
	thermAct   []uint64  // flits forwarded since last thermal step

	secded ecc.Code
	dected ecc.Code

	cycle        int64
	nextFlitID   uint64
	nextPacketID uint64
	outstanding  int
	lastProgress int64

	// recs holds the record of every started, unretired packet by
	// value, at the slot its flits name (Flit.rec); recFree lists the
	// free slots, reused last-freed first, so the slab spans the most
	// packets ever in flight at once, not the trace. recPath is each
	// slot's forwarding path, a row of pathCap = Diameter()+1 router ids
	// (the longest minimal route), so recording a hop never allocates.
	recs    []packetRec
	recFree []int32
	recPath []uint16
	pathCap int

	// linkRate / linkRateRelaxed cache each router's link error rate
	// (normal and relaxed-timing), prepared for FlitBits-wide flits.
	// Temperatures only change at thermal boundaries, so the
	// exponentials behind these rates are evaluated once per router per
	// thermal step instead of on every link traversal attempt.
	linkRate        []fault.FlitRate
	linkRateRelaxed []fault.FlitRate

	// flitPool recycles flits, the steady-state heap objects (one per
	// flit per packet transmission): a flit returns to it on ejection.
	flitPool []*Flit

	// bufferedFlits counts flits across every router's input buffers; it
	// is zero exactly when no router pipeline has work, which is what
	// arms the idle fast-forward.
	bufferedFlits int

	// shardCount (at least 1) is the number of router-id ranges the tick
	// runs its per-router phases over (see shard.go); pool holds the
	// lazily started shard state and, for more than one shard, its
	// worker goroutines.
	shardCount int
	pool       *shardPool

	powersBuf []float64 // thermalStep scratch

	eventHook func(Event)
	epochHook func(EpochSample)

	// Aggregate statistics.
	latency         *stats.Histogram
	orderViolations uint64
	flitsDelivered  uint64
	pktsDelivered   uint64
	pktsFailed      uint64
	hopRetransmits  uint64
	e2eRetransmits  uint64
	codecDisagree   uint64
	modeBreakdown   stats.ModeBreakdown
	gatedCycles     uint64
	controlFaults   uint64
	errHist         [4]uint64
	tempSum         float64
	tempSamples     uint64
	// lostFlits counts flits that found no live record of their packet
	// at their slot (or a head flit whose path row was full): a stale or
	// misdirected slot, never expected.
	lostFlits uint64
}

// New builds a network from a validated config, a workload, and a
// controller. The controller may be nil, in which case every router stays
// in ModeSECDED (the static baseline).
func New(cfg Config, gen traffic.Generator, ctrl Controller) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctrl == nil {
		ctrl = StaticController(ModeSECDED)
	}
	topo, err := NewTopology(&cfg)
	if err != nil {
		return nil, err
	}
	nodes := topo.Nodes()
	n := &Network{
		cfg:        cfg,
		ctrl:       ctrl,
		topo:       topo,
		vcClasses:  topo.VCClasses(),
		nackBound:  int64(8 * (topo.Diameter() + 2)),
		pathCap:    topo.Diameter() + 1,
		gen:        traffic.NewPeeker(gen),
		injector:   fault.NewInjector(fault.DefaultTransientModel(cfg.BaseErrorRate), cfg.Seed+1),
		rng:        rand.New(rand.NewSource(cfg.Seed + 2)),
		payloadRng: rand.New(rand.NewSource(cfg.Seed + 3)),
		grid:       thermal.NewGridExtra(cfg.Width, cfg.Height, topo.Nodes()-topo.Cores(), thermal.DefaultParams()),
		aging:      fault.DefaultAgingParams(),
		wear:       make([]fault.Wear, nodes),
		meters:     make([]*power.Meter, nodes),
		lastTJ:     make([]float64, nodes),
		thermAct:   make([]uint64, nodes),
		latency:    stats.NewLatencyHistogram(),
		nics:       make([]*nic, nodes),
		secded:     ecc.NewSECDED(),
		dected:     ecc.NewDECTED(),

		linkRate:        make([]fault.FlitRate, nodes),
		linkRateRelaxed: make([]fault.FlitRate, nodes),
		powersBuf:       make([]float64, nodes),

		rGated:      make([]bool, nodes),
		rWaking:     make([]int32, nodes),
		cpGate:      cfg.PowerGating && !cfg.Bypass,
		gateAt:      make([]int64, nodes),
		rBufCount:   make([]int32, nodes),
		rBypassMode: make([]bool, nodes),
		staticFrom:  make([]int64, nodes),
		rOccVC:      make([]uint64, nodes),
		inMinReady:  make([]int64, nodes*NumPorts),
		rMinReady:   make([]int64, nodes),
		portOcc:     make([]int32, nodes*NumPorts),
		winOcc:      make([]uint64, nodes*NumPorts),
		winEnd:      int64(cfg.TimeStepCycles),
		nicReady:    make([]int64, nodes),
	}
	if bc, ok := ctrl.(BufferController); ok {
		n.bufCtrl = bc
	}
	// Shards partition the dense router-id space into contiguous ranges
	// (geometry-free — see shard.go); more shards than nodes would leave
	// workers with nothing to scan.
	n.shardCount = max(1, min(cfg.Shards, nodes))
	n.buildTopology()
	n.refreshLinkRates()
	pp := power.DefaultParams()
	nics := make([]nic, nodes)
	for i := 0; i < nodes; i++ {
		n.meters[i] = power.NewMeter(pp, cfg.routerPowerConfig())
		nics[i].cur, nics[i].curVC = -1, -1
		n.nics[i] = &nics[i]
		n.nicReady[i] = noReady
		n.gateAt[i] = n.gateDelay() - 1 // idle from cycle 0
	}
	// Static policies apply from cycle 0; adaptive controllers start
	// from their own initial mode (SetInitialMode) and take over at the
	// first time-step boundary.
	if sc, ok := ctrl.(StaticController); ok {
		n.SetInitialMode(Mode(sc))
	}
	return n, nil
}

// buildTopology carves the routers, ports, channels and the slot-indexed
// slabs from one allocation each. The channel rings alone grow lazily:
// preallocating them was measured to cost more setup time and resident
// memory than it saved.
func (n *Network) buildTopology() {
	nodes := n.topo.Nodes()
	slots := nodes * NumPorts * n.cfg.VCs
	n.ivcs = make([]inputVC, slots)
	for i := range n.ivcs {
		n.ivcs[i].reset()
	}
	n.vcBuf = make([]*Flit, slots*n.cfg.BufDepth)
	n.credits = make([]int32, slots)
	n.share = make([]int32, slots)
	n.vcBusy = make([]bool, slots)
	n.winVCFlits = make([]uint64, slots)
	n.inPorts = make([]inputPort, nodes*NumPorts)
	n.outPorts = make([]outputPort, nodes*NumPorts)
	n.chans = make([]Channel, nodes*NumPorts)
	for i := range n.inMinReady {
		n.inMinReady[i] = noReady
	}
	for i := range n.rMinReady {
		n.rMinReady[i] = noReady
	}
	routers := make([]Router, nodes)
	n.routers = make([]*Router, nodes)
	for id := range routers {
		x, y := n.topo.Coords(id)
		r := &routers[id]
		*r = Router{
			id: id, x: x, y: y,
			mode:       ModeSECDED,
			lastScheme: ecc.SchemeSECDED,
		}
		// Local input port always exists (injection).
		r.in[PortLocal] = n.newInputPort(id, PortLocal, nil, -1)
		// Local output port: ejection sink (no channel) unless the
		// topology rewires it as a real link below (chiplet interposer
		// routers spend theirs on the vertical entry-node link), which
		// rewrites the port's slab rows too.
		r.out[PortLocal] = n.newOutputPort(id, PortLocal, -1, -1, nil)
		n.routers[id] = r
	}
	// Wire links; each direction gets its own channel, stored at and
	// keeping its earliest-ready slot for the receiving input port.
	for id, r := range n.routers {
		for p := 0; p < NumPorts; p++ {
			nb, nbPort := n.topo.Link(id, p)
			if nb < 0 {
				continue
			}
			k := nb*NumPorts + nbPort
			ch := &n.chans[k]
			ch.minReady = &n.inMinReady[k]
			r.out[p] = n.newOutputPort(id, p, nb, nbPort, ch)
			n.routers[nb].in[nbPort] = n.newInputPort(nb, nbPort, ch, n.vcIndex(id, p, 0))
		}
	}
}

// newInputPort initializes router id's input port p in the port slab;
// upCredits is the credit-slab index of the feeding output port's VC 0
// (-1 for none).
func (n *Network) newInputPort(id, p int, ch *Channel, upCredits int) *inputPort {
	ip := &n.inPorts[id*NumPorts+p]
	*ip = inputPort{ch: ch, upCredits: upCredits}
	return ip
}

// newOutputPort initializes router id's output port p in the port slab
// and its credit and share rows. Channel occupancy is governed by the
// per-VC credits, not a hard FIFO bound; ports without a channel are
// ejection sinks and hold the uncredited sentinel.
func (n *Network) newOutputPort(id, p, downRouter, downPort int, ch *Channel) *outputPort {
	op := &n.outPorts[id*NumPorts+p]
	*op = outputPort{ch: ch, downRouter: downRouter, downPort: downPort}
	base := n.vcIndex(id, p, 0)
	for v := 0; v < n.cfg.VCs; v++ {
		n.share[base+v] = int32(vcCredits(&n.cfg, v))
		n.credits[base+v] = n.share[base+v]
		if ch == nil {
			n.credits[base+v] = uncredited
		}
	}
	return op
}

// vcCredits is VC v's credit pool on an output port: its downstream
// router-buffer slots plus its share of the channel-buffer stages.
// Partitioning the channel per VC keeps the shared MFAC FIFO from
// wedging one VC's wormhole behind another's — the deadlock-freedom
// argument of Section 3.1.2 ("we still maintain the virtual channels").
// When ChannelStages does not divide evenly, the remainder stages go one
// apiece to the lowest-numbered VCs, so the per-port total always
// reconciles with the actual channel capacity
// (VCs*BufDepth + ChannelStages) instead of silently dropping storage.
func vcCredits(cfg *Config, v int) int {
	c := cfg.BufDepth + cfg.ChannelStages/cfg.VCs
	if v < cfg.ChannelStages%cfg.VCs {
		c++
	}
	return c
}

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// FlitsDelivered returns the count of flits ejected so far.
func (n *Network) FlitsDelivered() uint64 { return n.flitsDelivered }

// Step advances the network by one clock cycle — or, when the whole
// network is provably idle, jumps directly to the cycle of the next event
// with the per-cycle accounting batch-applied for the skipped span (see
// idleSpan). The fast-forward is exact: results are bit-identical to
// stepping the idle stretch cycle by cycle.
func (n *Network) Step() { n.step(1 << 62) }

// step is Step bounded so the fast-forward never jumps past maxCycles
// (RunUntilDrained's truncation point). It is the only tick, at every
// shard count. Power+delivery and the staged link drain run through the
// shard pool (inline for one shard), and their cross-router side effects
// commit in router order after each phase; everything else, the router
// pipelines included, runs on the coordinator (see shard.go).
func (n *Network) step(maxCycles int64) {
	if n.pool == nil || n.pool.closed.Load() {
		n.pool = newShardPool(n, n.shardCount)
	}
	cy := n.cycle

	// 0. Idle fast-forward: with no buffered flits anywhere, the network
	// can only be waiting — on a channel flit's readyAt, a future
	// workload packet, a wake/gate countdown, or a thermal/control
	// boundary. Jump straight there.
	if n.bufferedFlits == 0 && !n.cfg.DisableIdleFastForward {
		if k := n.idleSpan(); k > 1 {
			if lim := maxCycles - cy; k > lim {
				k = lim
			}
			if k > 1 {
				n.fastForward(k)
				return
			}
		}
	}

	// 1. Admit workload packets due this cycle into the NIC queues.
	n.admitStep(cy)

	// 2+3. Power-state maintenance, then channel deliveries into active
	// routers' buffers, through the shard pool.
	n.powerDeliverPhase(cy)

	// 4. Router pipelines (or bypass switches), in router order on the
	// coordinator.
	n.routerPhase(cy)

	// 5. NIC injection into active routers (gated mode-0 routers
	// inject through the bypass switch instead).
	n.injectPhase(cy)

	// 6. Accounting: the gated-cycle add and the staged link drain.
	n.accountPhase(cy)

	n.advance(1)
}

// idleSpan returns the number of upcoming cycles (starting with the
// current one) that are provably pure accounting — no admission, no
// delivery, no pipeline or bypass work, no power-state transition — or 0
// if the current cycle may do work. It never spans a thermal or control
// boundary, a wake/gate transition, a channel flit's readyAt, or the next
// workload packet's injection time, so normal stepping resumes exactly at
// the next event. Callers must ensure bufferedFlits == 0.
func (n *Network) idleSpan() int64 {
	cy := n.cycle
	// A pending or due workload packet means admission/injection work.
	next := n.gen.NextTime()
	if next >= 0 && next <= cy {
		return 0
	}
	for _, q := range n.nics {
		if q.pending() {
			return 0
		}
	}
	bound := int64(1) << 62
	if next > cy {
		bound = next - cy
	}
	for id, waking := range n.rWaking {
		if waking > 0 {
			// The router ungates (and flushes static accounting) the
			// cycle its countdown hits zero.
			if waking == 1 {
				return 0
			}
			if w := int64(waking) - 1; w < bound {
				bound = w
			}
			continue
		}
		if !n.rGated[id] && n.cfg.Bypass && n.rBypassMode[id] {
			return 0 // gates itself this cycle (buffers are empty)
		}
		// Channel flits: delivery (or gated-router wake) happens at the
		// earliest readyAt; a flit already ready may be deliverable or
		// credit-blocked — either way this cycle is not provably idle.
		e := n.rMinReady[id]
		if e <= cy {
			return 0
		}
		if e != noReady && e-cy < bound {
			bound = e - cy
		}
		// CP-style idle gating: the router (idle, as every buffer and
		// NIC is empty) gates at its deadline, which must not be skipped.
		if n.cpGate && !n.rGated[id] && e == noReady {
			left := n.gateAt[id] - cy
			if left <= 0 {
				return 0
			}
			bound = min(bound, left)
		}
	}
	if d := n.untilBoundary(cy, int64(n.cfg.ThermalIntervalCycles)); d < bound {
		bound = d
	}
	if d := n.untilBoundary(cy, int64(n.cfg.TimeStepCycles)); d < bound {
		bound = d
	}
	return bound
}

// untilBoundary returns the distance from cy to the next multiple of
// interval strictly after cy.
func (n *Network) untilBoundary(cy, interval int64) int64 {
	return interval - cy%interval
}

// fastForward batch-applies k idle cycles' worth of per-cycle accounting
// and advances the clock, firing the thermal/control boundary exactly as
// the cycle-by-cycle loop would. idleSpan guarantees no other state can
// change during the span.
//
// The static spans and the prepaid window occupancies need nothing (every
// buffer is empty, so no occupancy changes), the gated set is fixed for
// the span, and the CP gating deadlines are absolute cycles, so only the
// wake countdowns are walked — and only on designs that can gate at all.
func (n *Network) fastForward(k int64) {
	n.gatedCycles += uint64(k) * uint64(n.nGated)
	if n.cfg.PowerGating || n.cfg.Bypass {
		for id, w := range n.rWaking {
			if w > 0 {
				n.rWaking[id] -= int32(k) // idleSpan bounds k <= waking-1
			}
		}
	}
	n.advance(k)
}

// advance moves the clock k cycles on, then fires the thermal and control
// steps if it lands on their boundaries.
func (n *Network) advance(k int64) {
	n.cycle += k
	if n.cycle%int64(n.cfg.ThermalIntervalCycles) == 0 {
		n.thermalStep()
	}
	if n.cycle%int64(n.cfg.TimeStepCycles) == 0 {
		n.controlStep()
	}
}
