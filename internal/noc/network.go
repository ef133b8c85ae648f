package noc

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"intellinoc/internal/ecc"
	"intellinoc/internal/fault"
	"intellinoc/internal/power"
	"intellinoc/internal/stats"
	"intellinoc/internal/thermal"
	"intellinoc/internal/traffic"
)

// tracePkt is a workload packet its NIC has admitted but not yet started
// to inject: a compact, pointer-free record of what the packet will need.
// The packet's id is assigned at admission, in pop order; the source is
// the NIC that queues it.
type tracePkt struct {
	id    uint64
	time  int64 // trace time (the open-loop latency baseline)
	gap   int64 // compute gap after the previous packet of this source
	dst   int32
	flits int32
}

// record returns the record of the packet t of source src once it starts
// with latency baseline injectCycle.
func (t *tracePkt) record(src int, injectCycle int64) packetRec {
	return packetRec{
		id: t.id, src: int32(src), dst: t.dst, flits: t.flits,
		injectCycle: injectCycle, gap: t.gap,
	}
}

// packetRec is one started, unretired packet: what survives end-to-end
// retransmissions, the delivery progress at the destination, and the
// routers its head flit traversed — the paper's reward attributes each
// flit transmission's end-to-end ACK latency to the *transmitting*
// router, so every router on the path observes the packet's final
// latency. Records live by value in Network.recs, and a flit names its
// packet's slot there (Flit.rec).
type packetRec struct {
	id           uint64
	injectCycle  int64 // latency baseline (trace time; NIC start if closed-loop)
	gap          int64 // compute gap after the previous packet of this source
	notBefore    int64 // e2e retry eligibility (after the NACK reaches the source)
	src, dst     int32
	flits        int32 // 0 marks a free slot
	retries      int32
	flitsArrived int32
	pathLen      int32 // routers on the slot's row of Network.recPath
	corrupt      bool
}

// nic is a node's network interface: a packet queue streamed one packet at
// a time into the local input port (or the bypass switch when the local
// router is gated). Only the packet it streams and its end-to-end retries
// hold records; the packets waiting to start are trace records, so a
// closed loop's backlog costs 32 bytes a packet and no record.
type nic struct {
	// wait[head:] holds the packets waiting to start, oldest first. A
	// closed loop backs hundreds of packets up per NIC, so popping
	// advances head instead of shifting the queue down, and the dead
	// prefix is compacted away once it is half the slice: O(1) amortized
	// per pop, with the capacity anchored (a re-slicing pop would strand
	// the front and make later appends reallocate).
	wait []tracePkt
	head int
	// retry holds the record slots of end-to-end retries, newest last.
	// The newest retry starts first, ahead of every waiting packet.
	retry []int32
	// cur is the record slot of the packet being streamed, or -1.
	cur     int32
	curVC   int
	nextIdx int
	vcRR    int
	// Closed-loop (dependency-window) state.
	outstanding   int
	lastInject    int64
	lastTraceTime int64
	seenAny       bool
}

func (q *nic) pending() bool { return q.cur >= 0 || len(q.retry) > 0 || q.queued() > 0 }

// queued returns the number of packets waiting to start.
func (q *nic) queued() int { return len(q.wait) - q.head }

// popFront removes the oldest waiting packet; the queue must be
// non-empty.
func (q *nic) popFront() {
	q.head++
	if 2*q.head >= len(q.wait) {
		live := copy(q.wait, q.wait[q.head:])
		q.wait, q.head = q.wait[:live], 0
	}
}

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

// route computes the output port and dateline VC class for flit f at
// router r, per the configured topology.
func (n *Network) route(r *Router, f *Flit) (port, vcClass int) {
	return n.topo.Route(r.id, f.Src, f.Dst)
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
	sp := n.pool
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
	// routers' buffers. Commit the counter deltas and flush the buffered
	// events in shard (= router) order: all gate/wake events first, then
	// all deliveries.
	sp.runPhase(phasePowerDeliver, cy)
	for _, slot := range sp.slots {
		n.bufferedFlits += slot.buffered
		slot.buffered = 0
		n.nGated += slot.gatedDelta
		slot.gatedDelta = 0
		if slot.progress {
			n.lastProgress = cy
			slot.progress = false
		}
	}
	if n.eventHook != nil {
		for _, slot := range sp.slots {
			for i := range slot.gateEvents {
				n.eventHook(slot.gateEvents[i])
			}
			slot.gateEvents = slot.gateEvents[:0]
		}
		for _, slot := range sp.slots {
			for i := range slot.deliverEvents {
				n.eventHook(slot.deliverEvents[i])
			}
			slot.deliverEvents = slot.deliverEvents[:0]
		}
	}

	// 4. Router pipelines (or bypass switches): sa;va;rc fused per router
	// in router order on the coordinator, at every shard count, touching
	// each router's VC state once. Arbitration returns credits upstream
	// at once, and a higher-numbered router sees them this same cycle
	// (see shard.go), so the order is part of the semantics. A router
	// whose input buffers are empty has nothing for RC/VA/SA to do —
	// skip its port×VC scans outright. Buffered flits imply an active
	// router (a router gates only once drained, and nothing is delivered
	// to or injected into a gated or waking one), so the buffered-flit
	// count is the one word tested per router; only bypass designs also
	// read the gated flag, and only for drained routers. A gated router's
	// bypass switch runs only when a channel flit or its NIC is due: with
	// neither, every port's peek refuses without side effects.
	bypass, cpGate := n.cfg.Bypass, n.cpGate
	for id, c := range n.rBufCount {
		switch {
		case c > 0:
			r := n.routers[id]
			n.saStage(r, cy)
			n.vaStage(r, cy)
			n.rcStage(r, cy)
			if cpGate && n.rBufCount[id] == 0 {
				n.armGate(id, cy) // drained this cycle
			}
		case bypass && n.rGated[id] && (n.rMinReady[id] <= cy || n.nicReady[id] <= cy):
			n.bypassStep(n.routers[id], cy)
		}
	}

	// 5. NIC injection into active routers (gated mode-0 routers
	// inject through the bypass switch instead).
	n.injectPhase(cy)

	// 6. Accounting. The per-cycle counters are banked at the state
	// changes themselves (staticFrom, the prepaid winOcc, nGated), so
	// all that is left is the gated-cycle add and, with more than one
	// shard, the staged link pushes each shard drains into its own
	// channels (see stagedPush).
	n.gatedCycles += uint64(n.nGated)
	if n.shardCount > 1 {
		sp.runPhase(phaseDrainLinks, cy)
	}

	n.cycle++
	if n.cycle%int64(n.cfg.ThermalIntervalCycles) == 0 {
		n.thermalStep()
	}
	if n.cycle%int64(n.cfg.TimeStepCycles) == 0 {
		n.controlStep()
	}
}

// admitStep moves workload packets due this cycle into the NIC queues as
// trace records; a packet gets its record only when it starts (see
// peekNICFlit). Packet ids are handed out in pop order, so this phase
// runs on the coordinator. Admitting into a network with nothing
// outstanding restarts the stall clock: the idle gap before it was not a
// stall.
func (n *Network) admitStep(cy int64) {
	for {
		pkt, ok := n.gen.PopDue(cy)
		if !ok {
			break
		}
		q := n.nics[pkt.Src]
		t := tracePkt{id: n.nextPacketID, time: pkt.Time, dst: int32(pkt.Dst), flits: int32(pkt.Flits)}
		if q.seenAny {
			t.gap = pkt.Time - q.lastTraceTime
		}
		q.lastTraceTime = pkt.Time
		q.seenAny = true
		n.nextPacketID++
		q.wait = append(q.wait, t)
		n.nicReady[pkt.Src] = n.nicWake(q)
		if n.outstanding == 0 {
			n.lastProgress = cy
		}
		n.outstanding++
	}
}

// injectPhase runs step 5 for every NIC: injection into active routers,
// wake triggering for gated CP-style ones. Flit ids and the injection
// PRNG draws are handed out in router order, so this phase runs on the
// coordinator and emits its events directly. injectStep runs only where
// the NIC's eligibility word has come due: elsewhere it would find an
// empty NIC, or a head packet held by its dependency window or NACK
// delay, and return without touching any state.
func (n *Network) injectPhase(cy int64) {
	for id, t := range n.nicReady {
		switch {
		case t <= cy && n.active(id):
			n.injectStep(n.routers[id], n.nics[id], cy)
		case n.cpGate && n.rGated[id] && n.rWaking[id] == 0 && n.nics[id].pending() && n.triggerWake(n.routers[id]):
			n.emit(Event{Cycle: cy, Kind: EvWake, Router: id})
		}
	}
}

// nicWake returns the earliest cycle at which injectStep could change NIC
// q's state: a past cycle while a packet is streaming (every refused peek
// still takes a flit id), the end of the newest end-to-end retry's NACK
// delay, noReady while nothing waits or the oldest waiting packet waits
// for an ejection to free its dependency window, and otherwise the end of
// its compute gap. Before that cycle peekNICFlit refuses without side
// effects, so skipping the call is exact.
func (n *Network) nicWake(q *nic) int64 {
	if q.cur >= 0 {
		return math.MinInt64
	}
	if k := len(q.retry); k > 0 {
		return n.recs[q.retry[k-1]].notBefore
	}
	if q.queued() == 0 {
		return noReady
	}
	if w := n.cfg.DependencyWindow; w > 0 {
		if q.outstanding >= w {
			return noReady
		}
		return max(0, q.lastInject+q.wait[q.head].gap)
	}
	return 0
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
	n.cycle += k
	if n.cycle%int64(n.cfg.ThermalIntervalCycles) == 0 {
		n.thermalStep()
	}
	if n.cycle%int64(n.cfg.TimeStepCycles) == 0 {
		n.controlStep()
	}
}

// powerStateStep advances wake counters and gating decisions. It touches
// only the router's own state (and its meter), so shards run it in
// parallel; slot buffers the emitted events for the in-order flush after
// the phase.
func (n *Network) powerStateStep(r *Router, cy int64, slot *shardSlot) {
	id := r.id
	if n.rWaking[id] > 0 {
		n.rWaking[id]--
		if n.rWaking[id] == 0 {
			n.rGated[id] = false
			slot.gatedDelta--
			n.flushStatic(r)
			if n.cpGate {
				n.gateAt[id] = cy + n.gateDelay()
			}
		}
		return
	}
	if n.rGated[id] {
		// CP-style gated routers (no bypass) wake when traffic shows
		// up at any input channel.
		if !n.cfg.Bypass && n.rMinReady[id] <= cy && n.triggerWake(r) {
			n.emitGate(slot, Event{Cycle: cy, Kind: EvWake, Router: id})
		}
		return
	}
	// Mode-0 routers gate as soon as their buffers drain.
	if n.cfg.Bypass && n.rBypassMode[id] && n.empty(id) {
		n.flushStatic(r)
		n.rGated[id] = true
		slot.gatedDelta++
		n.emitGate(slot, Event{Cycle: cy, Kind: EvGate, Router: id})
		return
	}
	// CP-style idle gating: the caller visits an ungated router only at
	// its deadline (gateAt <= cy). Idle there, it has been idle for
	// IdleGateCycles checks and powers down; busy, it drops the deadline
	// until a drain re-arms it.
	if n.cpGate {
		if n.idle(id) {
			n.flushStatic(r)
			n.rGated[id] = true
			slot.gatedDelta++
			n.emitGate(slot, Event{Cycle: cy, Kind: EvGate, Router: id})
		} else {
			n.gateAt[id] = noReady
		}
	}
}

// idle reports whether router id has no buffered flit, no channel flit
// and no pending NIC packet: the state CP-style gating waits out.
func (n *Network) idle(id int) bool {
	return n.rBufCount[id] == 0 && n.rMinReady[id] == noReady && !n.nics[id].pending()
}

// gateDelay is the number of idle power checks after which a CP-style
// router gates (an IdleGateCycles below 1 gates at the first one).
func (n *Network) gateDelay() int64 { return int64(max(n.cfg.IdleGateCycles, 1)) }

// armGate restarts CP router id's gating deadline when its pipeline
// drained its buffers at cycle cy and that left it idle. A drain is the
// only change that can: a channel delivery and a NIC injection each move
// their flit into the router's own buffer, and a gated or waking router's
// traffic stays put until it is active again. The check runs once the
// router's pipeline pass is over, not at the pop that emptied its
// buffers: the rest of the pass cannot make the router idle, so one that
// is idle at its next check is armed either way.
func (n *Network) armGate(id int, cy int64) {
	if n.idle(id) {
		n.gateAt[id] = cy + n.gateDelay()
	}
}

// refreshMinReady recomputes router id's earliest-ready word from its
// input channels' slots, after a removal that may have raised one.
func (n *Network) refreshMinReady(id int) {
	e := int64(noReady)
	for _, s := range n.inMinReady[id*NumPorts : (id+1)*NumPorts] {
		e = min(e, s)
	}
	n.rMinReady[id] = e
}

// linkPush enqueues flit f on the channel at slab index k (the receiving
// router's input port), keeping the receiving router's earliest-ready
// word exact.
func (n *Network) linkPush(k int, f *Flit, readyAt int64) {
	n.chans[k].push(f, readyAt)
	if id := k / NumPorts; readyAt < n.rMinReady[id] {
		n.rMinReady[id] = readyAt
	}
}

// triggerWake starts a gated router's wake-up countdown and reports
// whether it did; the caller emits the EvWake event.
func (n *Network) triggerWake(r *Router) bool {
	id := r.id
	if n.rWaking[id] > 0 || !n.rGated[id] {
		return false
	}
	n.flushStatic(r)
	n.rWaking[id] = int32(n.cfg.WakeupCycles)
	if n.rWaking[id] <= 0 {
		n.rWaking[id] = 1
	}
	n.meters[id].Wakeup()
	return true
}

// flushStatic banks the cycles spent in the router's previous static state
// before a state change and starts the next span at the current cycle.
// Inside a tick n.cycle is the cycle being stepped, and at thermal and
// control boundaries it is the cycle just completed plus one, so the span
// counts exactly the cycles a per-cycle increment at the end of each tick
// would have. Readers use staticJoules instead, so observing a run cannot
// change it.
func (n *Network) flushStatic(r *Router) {
	id := r.id
	if span := n.staticSpan(id); span > 0 {
		n.meters[id].TickStatic(span, r.lastScheme, r.lastGated)
		n.staticFrom[id] = n.cycle
	}
	r.lastScheme = n.schemeOf(r)
	r.lastGated = n.rGated[id]
}

// staticSpan is the number of cycles router id has spent in its current
// static state since the last flushStatic.
func (n *Network) staticSpan(id int) uint64 { return uint64(n.cycle - n.staticFrom[id]) }

// staticJoules returns router id's static energy so far, including the
// cycles not yet banked, without banking them.
func (n *Network) staticJoules(id int) float64 {
	r := n.routers[id]
	span := n.staticSpan(id)
	if span == 0 {
		return n.meters[id].StaticJoules
	}
	return n.meters[id].StaticAfter(span, r.lastScheme, r.lastGated)
}

// deliverChannels moves at most one flit per input port from the channel
// into its VC buffer. Callers skip routers whose earliest-ready word lies
// in the future; within the router, a port whose earliest-ready slot lies
// in the future (or holds noReady) is skipped without touching its
// channel. It mutates only the router's own channels and buffers, so
// shards run it in parallel; the cross-router side effects
// (bufferedFlits, lastProgress, the delivery events) go through slot and
// commit after the phase.
func (n *Network) deliverChannels(r *Router, cy int64, slot *shardSlot) {
	base := r.id * NumPorts
	vcs := n.cfg.VCs
	delivered := false
	for p := 0; p < NumPorts; p++ {
		if n.inMinReady[base+p] > cy {
			continue
		}
		ch := &n.chans[base+p]
		vc0 := (base + p) * vcs
		sink := chanSink{vcs: n.ivcs[vc0 : vc0+vcs], depth: int32(n.cfg.BufDepth)}
		idx := ch.peekReady(cy, n.cfg.DynamicChannelAlloc, &sink)
		if idx < 0 {
			continue
		}
		vc := ch.at(idx).vc
		f := ch.remove(idx)
		delivered = true
		n.vcPush(vc0+vc, f)
		n.rOccVC[r.id] |= 1 << (p*vcs + vc)
		n.rBufCount[r.id]++
		n.occAdd(base+p, 1, cy)
		n.inPorts[base+p].winFlitsIn++
		n.meters[r.id].BufWrite()
		slot.buffered++
		slot.progress = true
		if n.eventHook != nil {
			slot.deliverEvents = append(slot.deliverEvents,
				Event{Cycle: cy, Kind: EvDeliver, Router: r.id, PacketID: f.PacketID, FlitSeq: f.Seq})
		}
	}
	if delivered {
		n.refreshMinReady(r.id)
	}
}

// occAdd records a change of d flits in input port k's buffer occupancy
// at cycle cy, prepaying its contribution to the window sum for every
// remaining cycle of the control window (see Network.winOcc). A negative
// d wraps the unsigned add into the matching subtraction.
func (n *Network) occAdd(k int, d int32, cy int64) {
	n.portOcc[k] += d
	n.winOcc[k] += uint64(int64(d) * (n.winEnd - cy))
}

// runningWinOcc is input port k's summed occupancy over the cycles of
// the current window completed so far: the prepaid counter less what the
// current occupancy has prepaid for the cycles still ahead.
func (n *Network) runningWinOcc(k int) uint64 {
	return n.winOcc[k] - uint64(n.portOcc[k])*uint64(n.winEnd-n.cycle)
}

// A router's (port, VC) slots index one uint64: the occupied-VC mask and
// the switch-allocation request masks. Config.Validate caps VCs at maxVCs,
// and the conversion below fails to compile if that could overflow.
const _ = uint(64 - NumPorts*maxVCs) // compile-time: NumPorts*maxVCs <= 64

// saStage performs switch allocation and traversal: one flit per output
// port, one per input port, credits permitting. One pass over the
// occupied input VCs builds a request mask per output port (bit
// p*VCs+v), so arbitration only touches slots that actually hold a routed
// flit — the hot loop of the whole simulator.
//
// One flit leaves each input port per cycle: used collects the slots of
// every input port already granted, and is cleared from each later
// output's request mask before it arbitrates. That is exact — a
// requester arbitrateOutput skips has no side effects.
func (n *Network) saStage(r *Router, cy int64) {
	var req [NumPorts]uint64
	base := n.vcIndex(r.id, 0, 0)
	row := n.ivcs[base : base+NumPorts*n.cfg.VCs]
	for m := n.rOccVC[r.id]; m != 0; m &= m - 1 {
		slot := bits.TrailingZeros64(m)
		ivc := &row[slot]
		if ivc.route < 0 || ivc.outVC < 0 {
			continue
		}
		req[ivc.route] |= 1 << slot
	}
	var used uint64
	portMask := uint64(1)<<n.cfg.VCs - 1
	for outP := 0; outP < NumPorts; outP++ {
		if rq := req[outP] &^ used; rq != 0 {
			if inP := n.arbitrateOutput(r, outP, cy, rq); inP >= 0 {
				used |= portMask << (inP * n.cfg.VCs)
			}
		}
	}
}

// rrNext returns the round-robin winner among the set bits of req: the
// first one at or above from, else the lowest. req must be non-zero.
func rrNext(req uint64, from int) int {
	if above := req >> from << from; above != 0 {
		return bits.TrailingZeros64(above)
	}
	return bits.TrailingZeros64(req)
}

// arbitrateOutput grants output port outP to the first eligible
// requester in circular slot order from the round-robin pointer, and
// returns the granted input port (-1 if none). Every eligibility test is
// side-effect-free, and the credit and VA-timing checks come before any
// flit load, so blocked requesters never touch flit memory. Candidates
// are read from the router's slab rows by slot; the input port and VC are
// decoded only for the grant.
func (n *Network) arbitrateOutput(r *Router, outP int, cy int64, req uint64) int {
	vcs := n.cfg.VCs
	op := r.out[outP]
	base := n.vcIndex(r.id, 0, 0)
	row := n.ivcs[base : base+NumPorts*vcs]
	// Credit-based flow control: the flit needs a reserved slot in the
	// downstream VC's combined channel+buffer storage. Ejection sinks
	// hold the uncredited sentinel, so they always pass.
	credits := n.credits[base+outP*vcs : base+(outP+1)*vcs]
	for req != 0 {
		slot := rrNext(req, op.saRR)
		req &^= 1 << slot
		ivc := &row[slot]
		outVC := int(ivc.outVC)
		if credits[outVC] <= 0 {
			continue
		}
		if ivc.vaAt >= cy && n.vcAt(base+slot, 0).Type.IsHead() {
			continue // VA completed this very cycle; SA is next cycle
		}
		// Grant: pop the flit and traverse.
		f := n.vcPop(base + slot)
		inP, vc := slot/vcs, slot%vcs
		if ivc.n == 0 {
			n.rOccVC[r.id] &^= 1 << slot
		}
		n.rBufCount[r.id]--
		n.occAdd(r.id*NumPorts+inP, -1, cy)
		n.bufferedFlits--
		op.saRR = (slot + 1) % (NumPorts * vcs)
		if f.Type.IsHead() {
			n.recordHop(f, r.id)
		}
		n.meters[r.id].Switch()
		// The freed channel+buffer slot's credit returns upstream.
		if up := r.in[inP].upCredits; up >= 0 {
			n.credits[up+vc]++
		}
		if f.Type.IsTail() {
			n.vcBusy[base+outP*vcs+outVC] = false
			ivc.reset()
		}
		if op.ch == nil {
			n.eject(r, f, cy)
		} else {
			f.VC = outVC
			credits[outVC]--
			n.winVCFlits[base+outP*vcs+outVC]++
			n.emitFlit(cy, EvTraverse, r.id, f)
			n.sendOnLink(r, op, f, cy)
		}
		n.lastProgress = cy
		return inP
	}
	return -1
}

// recordHop appends router id to the forwarding path of head flit f's
// packet, in the record's fixed path row.
func (n *Network) recordHop(f *Flit, id int) {
	pi := n.recOf(f)
	if pi == nil || int(pi.pathLen) >= n.pathCap {
		n.lostFlits++
		return
	}
	n.recPath[int(f.rec)*n.pathCap+int(pi.pathLen)] = uint16(id)
	pi.pathLen++
}

// vaStage allocates output VCs to routed head flits.
func (n *Network) vaStage(r *Router, cy int64) {
	base := n.vcIndex(r.id, 0, 0)
	row := n.ivcs[base : base+NumPorts*n.cfg.VCs]
	for m := n.rOccVC[r.id]; m != 0; m &= m - 1 {
		slot := bits.TrailingZeros64(m)
		ivc := &row[slot]
		if ivc.route < 0 || ivc.outVC >= 0 {
			continue
		}
		if ivc.routedAt >= cy {
			continue // RC finished this cycle; VA is next cycle
		}
		if !n.vcAt(base+slot, 0).Type.IsHead() {
			continue
		}
		n.allocVC(r, ivc, cy, false)
	}
}

// allocVC grants routed input VC ivc a free downstream VC of its output
// port in its dateline class — with withCredit, one that also holds a
// credit (see freeVC) — and reports whether it got one.
func (n *Network) allocVC(r *Router, ivc *inputVC, cy int64, withCredit bool) bool {
	outP := int(ivc.route)
	free := n.freeVC(r, outP, int(ivc.vcClass), withCredit)
	if free < 0 {
		return false
	}
	n.vcBusy[n.vcIndex(r.id, outP, free)] = true
	ivc.outVC = int8(free)
	ivc.vaAt = cy
	return true
}

// rcStage routes head flits that just reached the head of their VC. With
// ControlFaultRate > 0 each route draws from the fault PRNG, in router,
// port, VC order.
func (n *Network) rcStage(r *Router, cy int64) {
	base := n.vcIndex(r.id, 0, 0)
	row := n.ivcs[base : base+NumPorts*n.cfg.VCs]
	for m := n.rOccVC[r.id]; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		ivc := &row[s]
		if ivc.route >= 0 {
			continue
		}
		f := n.vcAt(base+s, 0)
		if !f.Type.IsHead() {
			continue
		}
		route, class := n.route(r, f)
		ivc.route, ivc.vcClass = int8(route), int8(class)
		ivc.routedAt = cy
		if n.cfg.ControlFaultRate > 0 && n.rng.Float64() < n.cfg.ControlFaultRate {
			// Parity caught a routing-table upset: recompute after the
			// penalty (the route itself stays correct).
			ivc.routedAt = cy + controlFaultPenalty
			n.controlFaults++
		}
		if !n.cfg.HasVAStage && !n.allocVC(r, ivc, cy, false) {
			// EB-style routers fold VC selection into RC,
			// eliminating the VA stage; without a free VC, retry
			// allocation in later cycles.
			ivc.route = -1
		}
	}
}

// bypassStep forwards flits through a gated router's stress-relaxing
// bypass switch: one flit per cycle, channel-to-channel, with routing
// state held in the always-on BST (the inputVC rows).
//
// A port with nothing due is skipped without a peek: a channel whose
// earliest-ready slot lies in the future (or that is absent) holds no
// ready flit, so peekReady would refuse before consulting its sink, and a
// NIC before its eligibility word refuses in peekNICFlit with no side
// effects. The round robin moves only on a forward, so the skip is exact.
func (n *Network) bypassStep(r *Router, cy int64) {
	base := r.id * NumPorts
	for k := 0; k < NumPorts; k++ {
		p := (r.bypassRR + k) % NumPorts
		due := n.inMinReady[base+p]
		if p == PortLocal && r.in[p].ch == nil {
			due = n.nicReady[r.id] // NIC injection, see tryBypassPort
		}
		if due > cy {
			continue
		}
		if n.tryBypassPort(r, p, cy) {
			r.bypassRR = (p + 1) % NumPorts
			n.lastProgress = cy
			return
		}
	}
}

// bypassCanForward reports whether the bypass switch could forward flit f
// right now. Ejection needs a free output VC but no credits; its
// uncredited sentinel always passes the credit test. It is not free of
// side effects: for a head flit the free-VC probe is freeVC itself, which
// advances the output port's vaRR past the VC it finds. tryBypassPort's
// allocation then searches from the advanced pointer, so the switch
// takes the next free VC after the one checked (the same one only when
// it is the only free VC), and each forwarded head moves the round robin
// twice. Seeded bypass results depend on that, so it stays until their
// goldens are regenerated (see ROADMAP.md).
func (n *Network) bypassCanForward(r *Router, p int, f *Flit) bool {
	if f.Type.IsHead() {
		route, class := n.route(r, f)
		return n.freeVC(r, route, class, true) >= 0
	}
	ivc := &n.ivcs[n.vcIndex(r.id, p, f.VC)]
	if ivc.route < 0 {
		return false // no BST row: wait for state (should not happen)
	}
	return n.credits[n.vcIndex(r.id, int(ivc.route), int(ivc.outVC))] > 0
}

// tryBypassPort attempts to forward one flit arriving at input port p.
// Channel selection uses the unified BST's dynamic allocation (Section
// 3.1.2): a head flit blocked on output VC availability must not trap the
// tail of the packet holding that VC behind it in the same channel FIFO.
func (n *Network) tryBypassPort(r *Router, p int, cy int64) bool {
	var f *Flit
	fromNIC := false
	var chIdx int
	// The local port is NIC injection only when no topology link claimed
	// it (chiplet interposers spend theirs on the vertical entry-node
	// channel, which forwards like any other port).
	if p == PortLocal && r.in[p].ch == nil {
		var ok bool
		f, ok = n.peekNICFlit(r, n.nics[r.id], cy)
		if !ok {
			return false
		}
		if !n.bypassCanForward(r, p, f) {
			n.recycleFlit(f) // the next peek makes a fresh one
			return false
		}
		fromNIC = true
	} else {
		ip := r.in[p]
		if ip == nil || ip.ch == nil {
			return false
		}
		sink := chanSink{n: n, r: r, p: p}
		chIdx = ip.ch.peekReady(cy, true, &sink)
		if chIdx < 0 {
			return false
		}
		f = ip.ch.at(chIdx).flit
	}

	ivc := &n.ivcs[n.vcIndex(r.id, p, f.VC)]
	if f.Type.IsHead() {
		route, class := n.route(r, f)
		ivc.route, ivc.vcClass = int8(route), int8(class)
		ivc.routedAt = cy
		n.allocVC(r, ivc, cy, true) // bypassCanForward saw a free VC
		n.recordHop(f, r.id)
	}
	route, outVC := int(ivc.route), int(ivc.outVC)
	out := n.vcIndex(r.id, route, outVC)

	// Commit: consume the flit from its source.
	if fromNIC {
		n.consumeNICFlit(r, n.nics[r.id])
	} else {
		// The flit leaves this router's channel: return the storage
		// credit to the upstream sender.
		ip := r.in[p]
		ip.ch.remove(chIdx)
		n.refreshMinReady(r.id)
		ip.winFlitsIn++
		if ip.upCredits >= 0 {
			n.credits[ip.upCredits+f.VC]++
		}
	}
	if f.Type.IsTail() {
		n.vcBusy[out] = false
		ivc.reset()
	}
	if r.out[route].ch == nil {
		n.eject(r, f, cy)
		return true
	}
	f.VC = outVC
	n.credits[out]--
	n.winVCFlits[out]++
	n.emitFlit(cy, EvBypass, r.id, f)
	n.sendOnLink(r, r.out[route], f, cy)
	return true
}

// sendOnLink pushes a flit into an output channel, applying link latency,
// per-hop ECC latency, fault injection, and hop-level retransmission.
func (n *Network) sendOnLink(r *Router, op *outputPort, f *Flit, cy int64) {
	scheme := n.schemeOf(r)
	relaxed := n.relaxedLinks(r)
	capab := ecc.CapabilityOf(scheme)

	// ST + link traversal on the active pipeline; switch + link, the
	// bypass's entire "pipeline", through a gated router.
	latency := int64(2)
	if relaxed {
		latency++ // doubled link traversal time (mode 4)
	}
	switch scheme {
	case ecc.SchemeSECDED:
		latency++ // per-hop decode
	case ecc.SchemeDECTED:
		latency += 2
	}

	hops := uint64(1)
	readyAt := cy + latency
	// Fault injection and resolution. Hop-level retransmission re-sends
	// from the MFAC (or router) retransmission buffer until the flit
	// gets through or the errors slip past detection.
	for attempt := 0; attempt < 8; attempt++ {
		errBits := n.sampleLinkErrors(r, relaxed)
		class := errBits
		if class > 3 {
			class = 3
		}
		r.winErrHist[class]++
		n.errHist[class]++
		outcome := n.resolveErrors(f, scheme, capab, errBits)
		if outcome != ecc.OutcomeDetected {
			break
		}
		// NACK + retransmission: extra round trip and another link
		// traversal's worth of energy.
		readyAt += 3
		n.hopRetransmits++
		r.winHopRetrans++
		n.emitFlit(cy, EvHopRetransmit, r.id, f)
		hops++
	}
	n.meters[r.id].Link(hops, uint64(n.cfg.ChannelStages), scheme)
	n.thermAct[r.id]++
	op.winFlitsOut++
	// With more than one shard the push is staged per destination shard
	// and drained by the channel's owning shard at the end of the tick;
	// the deferral is invisible within the tick (readyAt >= cy+2, so
	// nothing before the drain can take the flit). One shard pushes
	// directly.
	k := op.downRouter*NumPorts + op.downPort
	if sp := n.pool; n.shardCount > 1 {
		slot := sp.slots[sp.shardOf[op.downRouter]]
		slot.stagedLinks = append(slot.stagedLinks, stagedPush{chanIdx: k, flit: f, readyAt: readyAt})
	} else {
		n.linkPush(k, f, readyAt)
	}
}

// sampleLinkErrors draws the error-bit count for one link traversal. The
// rate comes from the per-router cache refreshed at thermal-step
// boundaries (temperatures cannot change in between), so the hot path is
// one table lookup instead of three exponentials per attempt.
func (n *Network) sampleLinkErrors(r *Router, relaxed bool) int {
	if relaxed {
		return n.injector.SampleFlit(n.linkRateRelaxed[r.id])
	}
	return n.injector.SampleFlit(n.linkRate[r.id])
}

// refreshLinkRates recomputes the cached per-router link error rates from
// the current temperatures (or the forced injection rate). Called at
// construction and after every thermal step — the only points where the
// inputs to the transient-fault model change.
func (n *Network) refreshLinkRates() {
	bits := n.cfg.FlitBits
	if n.cfg.ForcedErrorRate > 0 {
		re := n.cfg.ForcedErrorRate
		rate := fault.NewFlitRate(re, bits)
		relaxed := fault.NewFlitRate(re*n.injector.Model.RelaxFactor, bits)
		for i := range n.linkRate {
			n.linkRate[i], n.linkRateRelaxed[i] = rate, relaxed
		}
		return
	}
	for i := range n.linkRate {
		re, relaxed := n.injector.Model.BitErrorRates(n.grid.Temp(i), 1.0)
		n.linkRate[i] = fault.NewFlitRate(re, bits)
		n.linkRateRelaxed[i] = fault.NewFlitRate(relaxed, bits)
	}
}

// resolveErrors applies the active scheme to an injected error count,
// using the bit-exact codecs when VerifyPayloads is on and the capability
// fast path otherwise.
func (n *Network) resolveErrors(f *Flit, scheme ecc.Scheme, capab ecc.Capability, errBits int) ecc.Outcome {
	if errBits == 0 {
		return ecc.OutcomeClean
	}
	if capab.EndToEnd || scheme == ecc.SchemeNone {
		// No per-hop hardware: the damage rides along until the
		// destination CRC catches it.
		f.Corrupt = true
		return ecc.OutcomeSilent
	}
	outcome := capab.Resolve(errBits)
	if n.cfg.VerifyPayloads && f.Payload != nil {
		n.verifyWithCodec(f, scheme, capab, errBits, outcome)
	}
	if outcome == ecc.OutcomeSilent {
		f.Corrupt = true
	}
	return outcome
}

// verifyWithCodec runs the real encode→corrupt→decode path on the flit's
// payload as a cross-check of the capability fast path: the upset burst
// lands as errBits distinct bits of one of the two 64-bit ECC words
// protecting the flit's 128 payload bits. The capability table stays
// authoritative for the hop outcome (so VerifyPayloads cannot change a
// seeded run's results); any in-envelope disagreement between the codec
// and the table is counted in codecDisagree instead of silently steering
// the simulation. On a Silent outcome the payload is left carrying the
// mis-decoded bytes so the end-to-end CRC has real damage to catch.
func (n *Network) verifyWithCodec(f *Flit, scheme ecc.Scheme, capab ecc.Capability, errBits int, outcome ecc.Outcome) {
	code := n.secded
	if scheme == ecc.SchemeDECTED {
		code = n.dected
	}
	w := n.payloadRng.Intn(2)
	word := ecc.FromBytes(f.Payload[w*8 : w*8+8])
	encoded := code.Encode(word)
	// Flip errBits distinct codeword bits (a repeated position would
	// cancel itself and silently weaken the injected burst).
	flipped := make(map[int]bool, errBits)
	for len(flipped) < errBits && len(flipped) < encoded.Len() {
		b := n.payloadRng.Intn(encoded.Len())
		if flipped[b] {
			continue
		}
		flipped[b] = true
		encoded.FlipBit(b)
	}
	data, res := code.Decode(encoded)
	// Inside the code's guaranteed envelope the decoder must reproduce
	// the table's verdict exactly; beyond it (errBits > Detect) any
	// decoder behaviour is legal and only the table's Silent stands.
	if errBits <= capab.Detect {
		want := ecc.ResultCorrected
		if errBits > capab.Correct {
			want = ecc.ResultDetected
		}
		if res != want || (res == ecc.ResultCorrected && !data.Equal(word)) {
			n.codecDisagree++
		}
		return
	}
	// Silent: carry forward whatever the decoder produced; if it happens
	// to reconstruct the original word, force one payload bit wrong so
	// the corruption the table promised is physically present.
	copy(f.Payload[w*8:], data.Bytes())
	if data.Equal(word) {
		f.Payload[w*8] ^= 1 << uint(n.payloadRng.Intn(8))
	}
}

// CodecDisagreements returns how many protected hops saw the bit-exact
// codec disagree with the capability table inside the scheme's guaranteed
// correct/detect envelope. It must be zero on any run; internal/diffcheck
// asserts this as part of the VerifyPayloads pair check.
func (n *Network) CodecDisagreements() uint64 { return n.codecDisagree }

// eject delivers a flit to the destination NIC. The flit itself returns
// to the free-list here — the only place a consumed flit dies.
func (n *Network) eject(r *Router, f *Flit, cy int64) {
	n.flitsDelivered++
	n.emitFlit(cy, EvEject, r.id, f)
	n.meters[r.id].CRC()
	pi := n.recOf(f)
	slot, corrupt, seq := f.rec, f.Corrupt, f.Seq
	n.recycleFlit(f)
	if pi == nil {
		n.lostFlits++
		return
	}
	if corrupt {
		pi.corrupt = true
	}
	if seq != int(pi.flitsArrived) {
		// Wormhole routing must deliver a packet's flits in order;
		// any inversion is a flow-control bug.
		n.orderViolations++
	}
	pi.flitsArrived++
	if pi.flitsArrived < pi.flits {
		return
	}
	// Whole packet arrived: end-to-end CRC verdict.
	if pi.corrupt && int(pi.retries) < n.cfg.MaxPacketRetries {
		// Destination NACKs to the source, which retransmits the
		// packet (paper Section 2's CRC re-transmission scheme).
		pi.retries++
		// The NACK must travel back to the source before the packet
		// can be retransmitted: charge one path traversal's worth of
		// delay. The elapsed latency is the local estimate, capped at
		// a topology-diameter bound so repeated retries cannot compound
		// (8*(diameter+2); on a mesh that is the legacy 8*(W+H)).
		nack := cy - pi.injectCycle
		if nack > n.nackBound {
			nack = n.nackBound
		}
		pi.notBefore = cy + nack
		n.emit(Event{Cycle: cy, Kind: EvE2ERetransmit, Router: r.id, PacketID: pi.id})
		n.e2eRetransmits += uint64(pi.flits)
		// The record stays live; reset the delivery progress for the
		// retransmitted copy.
		pi.flitsArrived = 0
		pi.corrupt = false
		pi.pathLen = 0
		// Retries go ahead of every waiting packet and bypass the
		// dependency window: the transaction is already outstanding
		// and blocking it on itself would wedge a closed loop.
		q := n.nics[pi.src]
		q.retry = append(q.retry, slot)
		n.nicReady[pi.src] = n.nicWake(q)
		return
	}
	if pi.corrupt {
		n.pktsFailed++
	} else {
		n.pktsDelivered++
	}
	if n.cfg.DependencyWindow > 0 {
		// The freed window slot may release the source's head packet.
		q := n.nics[pi.src]
		q.outstanding--
		n.nicReady[pi.src] = n.nicWake(q)
	}
	lat := float64(cy - pi.injectCycle + 1)
	n.latency.Add(lat)
	// Reward attribution (paper Section 5): every router that forwarded
	// this packet observes its end-to-end latency, so a router whose
	// weak error protection corrupted it feels the retransmission cost.
	path := n.path(slot)
	if len(path) == 0 {
		r.winEjectLatency.Add(lat)
	}
	for _, rid := range path {
		n.routers[rid].winEjectLatency.Add(lat)
	}
	n.outstanding--
	n.freeRec(slot)
}

// peekNICFlit exposes (without consuming) the next flit the NIC wants to
// inject, materializing it on every call: a caller that refuses the flit
// recycles it.
func (n *Network) peekNICFlit(r *Router, q *nic, cy int64) (*Flit, bool) {
	if q.cur < 0 {
		if k := len(q.retry); k > 0 {
			s := q.retry[k-1]
			if n.recs[s].notBefore > cy {
				return nil, false // e2e NACK still in flight
			}
			q.retry = q.retry[:k-1]
			q.cur = s
		} else {
			if q.queued() == 0 {
				return nil, false
			}
			t := &q.wait[q.head]
			start := t.time
			// Dependency-window gating: at most W packets outstanding
			// per core, with trace gaps preserved as compute time
			// between injection starts (Netrace-style closed loop).
			if w := n.cfg.DependencyWindow; w > 0 {
				if q.outstanding >= w || cy < q.lastInject+t.gap {
					return nil, false
				}
				// Latency is measured from the moment the core is
				// ready to send, not from the open-loop trace time.
				start = cy
				q.outstanding++
				q.lastInject = cy
			}
			q.cur = n.newRec(t.record(r.id, start))
			q.popFront()
		}
		q.nextIdx = 0
		q.curVC = -1
		n.nicReady[r.id] = n.nicWake(q)
	}
	if q.curVC < 0 {
		// Pick a VC for this packet round-robin; the bypass path
		// doesn't buffer locally, so any VC whose BST row is free
		// works. The active path additionally needs buffer space,
		// checked by the caller.
		local := n.vcIndex(r.id, PortLocal, 0)
		for i := 0; i < n.cfg.VCs; i++ {
			v := (q.vcRR + i) % n.cfg.VCs
			if ivc := &n.ivcs[local+v]; ivc.n == 0 && ivc.route < 0 {
				q.curVC = v
				q.vcRR = (v + 1) % n.cfg.VCs
				break
			}
		}
		if q.curVC < 0 {
			return nil, false
		}
	}
	f := n.makeFlit(q.cur, q.nextIdx, q.curVC)
	return f, true
}

// consumeNICFlit commits the flit returned by peekNICFlit.
func (n *Network) consumeNICFlit(r *Router, q *nic) {
	n.meters[r.id].CRC() // injection-port CRC encode
	q.nextIdx++
	if q.nextIdx >= int(n.recs[q.cur].flits) {
		q.cur = -1
		q.curVC = -1
		n.nicReady[r.id] = n.nicWake(q)
	}
}

// makeFlit materializes flit #idx of the packet at record slot slot.
func (n *Network) makeFlit(slot int32, idx, vc int) *Flit {
	pi := &n.recs[slot]
	var t FlitType
	switch {
	case pi.flits == 1:
		t = FlitSingle
	case idx == 0:
		t = FlitHead
	case idx == int(pi.flits)-1:
		t = FlitTail
	default:
		t = FlitBody
	}
	var f *Flit
	var payload []byte
	if k := len(n.flitPool); k > 0 {
		f = n.flitPool[k-1]
		n.flitPool[k-1] = nil
		n.flitPool = n.flitPool[:k-1]
		payload = f.Payload // reuse the backing array across lives
	} else {
		f = &Flit{}
	}
	*f = Flit{
		ID: n.nextFlitID, PacketID: pi.id, Type: t,
		Src: int(pi.src), Dst: int(pi.dst), VC: vc, Seq: idx, rec: slot,
	}
	n.nextFlitID++
	if n.cfg.VerifyPayloads {
		if cap(payload) >= 16 {
			f.Payload = payload[:16]
		} else {
			f.Payload = make([]byte, 16)
		}
		n.payloadRng.Read(f.Payload)
	}
	return f
}

// recycleFlit returns an ejected flit, or a peeked NIC flit the router
// refused, to the free-list. Callers must not touch the flit afterwards.
func (n *Network) recycleFlit(f *Flit) {
	n.flitPool = append(n.flitPool, f)
}

// newRec stores a started packet's record and returns its slot: the
// last-freed slot, or a new one at the end of the slab. freeRec clears a
// retired packet's slot for reuse. The slab grows only past the most
// packets ever in flight at once, so starting a packet allocates nothing
// in steady state, however long the backlog waiting behind it.
func (n *Network) newRec(pi packetRec) int32 {
	if k := len(n.recFree); k > 0 {
		s := n.recFree[k-1]
		n.recFree = n.recFree[:k-1]
		n.recs[s] = pi
		return s
	}
	n.recs = append(n.recs, pi)
	n.recPath = append(n.recPath, make([]uint16, n.pathCap)...)
	return int32(len(n.recs) - 1)
}

func (n *Network) freeRec(s int32) {
	n.recs[s] = packetRec{}
	n.recFree = append(n.recFree, s)
}

// recOf returns the record of flit f's packet, or nil when f's slot
// holds no live record of that packet.
func (n *Network) recOf(f *Flit) *packetRec {
	if s := uint(f.rec); s < uint(len(n.recs)) {
		if pi := &n.recs[s]; pi.flits > 0 && pi.id == f.PacketID {
			return pi
		}
	}
	return nil
}

// path returns the routers recorded on slot s's forwarding path.
func (n *Network) path(s int32) []uint16 {
	at := int(s) * n.pathCap
	return n.recPath[at : at+int(n.recs[s].pathLen)]
}

// liveRecs returns the number of live records in the slab.
func (n *Network) liveRecs() int { return len(n.recs) - len(n.recFree) }

// injectStep streams the NIC's current packet into the local input port,
// one flit per cycle.
func (n *Network) injectStep(r *Router, q *nic, cy int64) {
	f, ok := n.peekNICFlit(r, q, cy)
	if !ok {
		return
	}
	i := n.vcIndex(r.id, PortLocal, f.VC)
	if int(n.ivcs[i].n) >= n.cfg.BufDepth {
		n.recycleFlit(f) // the next peek makes a fresh one
		return
	}
	n.consumeNICFlit(r, q)
	n.vcPush(i, f)
	n.rOccVC[r.id] |= 1 << (PortLocal*n.cfg.VCs + f.VC)
	n.rBufCount[r.id]++
	n.occAdd(r.id*NumPorts+PortLocal, 1, cy)
	n.bufferedFlits++
	r.in[PortLocal].winFlitsIn++
	n.meters[r.id].BufWrite()
	n.emitFlit(cy, EvInject, r.id, f)
	n.lastProgress = cy
}

// thermalStep integrates the thermal grid and the aging model over the
// elapsed interval.
func (n *Network) thermalStep() {
	dt := float64(n.cfg.ThermalIntervalCycles) / power.ClockHz
	powers := n.powersBuf
	for i, m := range n.meters {
		n.flushStatic(n.routers[i])
		powers[i] = (m.TotalJoules() - n.lastTJ[i]) / dt
		n.lastTJ[i] = m.TotalJoules()
	}
	n.grid.Step(powers, dt)
	for i := range n.routers {
		temp := n.grid.Temp(i)
		activity := float64(n.thermAct[i]) / float64(n.cfg.ThermalIntervalCycles) / NumPorts
		if activity > 1 {
			activity = 1
		}
		n.wear[i].Accrue(n.aging, dt, temp, activity, !n.rGated[i])
		n.thermAct[i] = 0
		n.tempSum += temp
		n.tempSamples++
	}
	// Temperatures moved: refresh the cached per-router bit-error rates.
	n.refreshLinkRates()
}

// controlStep closes one RL time step: builds each router's observation,
// asks the controller for the next mode, and resets the window counters.
func (n *Network) controlStep() {
	win := uint64(n.cfg.TimeStepCycles)
	winSeconds := float64(win) / power.ClockHz
	n.winEnd = n.cycle + int64(win)
	for i, r := range n.routers {
		n.flushStatic(r)
		obs := Observation{Router: i, Cycle: n.cycle}
		for p := 0; p < NumPorts; p++ {
			if ip := r.in[p]; ip != nil {
				obs.Features[p] = float64(ip.winFlitsIn) / float64(win)
				capacity := float64(n.cfg.VCs * n.cfg.BufDepth)
				obs.Features[5+p] = float64(n.winOcc[i*NumPorts+p]) / float64(win) / capacity
			}
			if op := r.out[p]; op != nil {
				obs.Features[10+p] = float64(op.winFlitsOut) / float64(win)
			}
		}
		obs.Features[15] = n.grid.Temp(i)
		if r.winEjectLatency.Count > 0 {
			r.lastAvgLatency = r.winEjectLatency.Mean()
		}
		if r.lastAvgLatency < 1 {
			r.lastAvgLatency = 1
		}
		obs.AvgLatencyCycles = r.lastAvgLatency
		obs.PowerMilliwatts = (n.meters[i].TotalJoules() - r.winEnergyStart) / winSeconds * 1e3
		obs.AgingFactor = n.aging.AgingFactor(n.wear[i])
		obs.ErrorHistogram = r.winErrHist
		obs.WinHopRetransmits = r.winHopRetrans

		n.modeBreakdown.AddCycles(int(r.mode), win)
		windowMode := r.mode
		mode := n.ctrl.NextMode(obs)
		if n.cfg.RLTable {
			n.meters[i].RLStep()
		}
		n.applyMode(r, mode)
		if n.bufCtrl != nil {
			if act := n.bufCtrl.NextBufferAction(obs); act >= 0 {
				n.applyBufferAction(r, act)
				if n.cfg.RLTable {
					// The buffer agent is a second Q-table lookup+update
					// per window (RACE runs its own table).
					n.meters[i].RLStep()
				}
			}
		}
		if n.epochHook != nil {
			_, _, dVth := n.aging.DeltaVth(n.wear[i])
			n.epochHook(EpochSample{
				Cycle:            n.cycle,
				Router:           i,
				WindowMode:       windowMode,
				NextMode:         mode,
				Gated:            n.rGated[i],
				TempC:            obs.Features[15],
				DeltaVth:         dVth,
				AgingFactor:      obs.AgingFactor,
				AvgLatencyCycles: obs.AvgLatencyCycles,
				PowerMilliwatts:  obs.PowerMilliwatts,
				ErrHist:          r.winErrHist,
				HopRetransmits:   r.winHopRetrans,
			})
		}

		// Reset the window.
		r.winEjectLatency = stats.Summary{}
		r.winErrHist = [4]uint64{}
		r.winHopRetrans = 0
		r.winEnergyStart = n.meters[i].TotalJoules()
		for p := 0; p < NumPorts; p++ {
			// Prepay the next window for the occupancy carried into it.
			n.winOcc[i*NumPorts+p] = uint64(n.portOcc[i*NumPorts+p]) * win
			if r.in[p] != nil {
				r.in[p].winFlitsIn = 0
			}
			if op := r.out[p]; op != nil {
				op.winFlitsOut = 0
			}
		}
		base := n.vcIndex(i, 0, 0)
		clear(n.winVCFlits[base : base+NumPorts*n.cfg.VCs])
	}
}

// applyBufferAction repartitions every credited output port of r per the
// chosen BufAction*: each VC's capacity becomes BufDepth (its private
// router-buffer floor, never reassigned) plus its allotted share of the
// ChannelStages, and outstanding credits shift by the capacity delta.
// Credits may go transiently negative when a VC's share shrinks below its
// in-flight storage — every consumption check is `credits > 0`, so that
// only pauses the VC until enough flits drain. Runs on the coordinator at
// the time-step boundary (controlStep), so it is shard-safe.
func (n *Network) applyBufferAction(r *Router, act int) {
	vcs := n.cfg.VCs
	stages := n.cfg.ChannelStages
	for p := 0; p < NumPorts; p++ {
		op := r.out[p]
		if op == nil || op.ch == nil {
			continue // ejection sinks are uncredited
		}
		base := n.vcIndex(r.id, p, 0)
		demand := n.winVCFlits[base : base+vcs]
		credits, share := n.credits[base:base+vcs], n.share[base:base+vcs]
		var alloc [maxVCs]int
		switch act {
		case BufActionDemand:
			apportionByDemand(alloc[:vcs], demand, stages)
		case BufActionConcentrate:
			best := 0
			for v := 1; v < vcs; v++ {
				if demand[v] > demand[best] {
					best = v
				}
			}
			alloc[best] = stages
		case BufActionReserve:
			active := 0
			for v := 0; v < vcs; v++ {
				if demand[v] > 0 {
					active++
				}
			}
			if active == 0 {
				evenSplit(alloc[:vcs], stages)
			} else {
				i := 0
				for v := 0; v < vcs; v++ {
					if demand[v] > 0 {
						alloc[v] = stages / active
						if i < stages%active {
							alloc[v]++
						}
						i++
					}
				}
			}
		default: // BufActionEven and anything unrecognized
			evenSplit(alloc[:vcs], stages)
		}
		for v := 0; v < vcs; v++ {
			newShare := int32(n.cfg.BufDepth + alloc[v])
			credits[v] += newShare - share[v]
			share[v] = newShare
		}
	}
}

// evenSplit is the static vcCredits stage distribution: stages/vcs each,
// remainder one apiece to the lowest-numbered VCs.
func evenSplit(alloc []int, stages int) {
	vcs := len(alloc)
	for v := range alloc {
		alloc[v] = stages / vcs
		if v < stages%vcs {
			alloc[v]++
		}
	}
}

// apportionByDemand distributes stages proportionally to each VC's window
// flit count by the largest-remainder method, ties to lower VCs. Zero
// total demand falls back to the even split.
func apportionByDemand(alloc []int, demand []uint64, stages int) {
	var total uint64
	for _, d := range demand {
		total += d
	}
	if total == 0 {
		evenSplit(alloc, stages)
		return
	}
	assigned := 0
	var rem [maxVCs]uint64 // scaled remainders, comparable exactly in integers
	for v := range alloc {
		q := uint64(stages) * demand[v]
		alloc[v] = int(q / total)
		rem[v] = q % total
		assigned += alloc[v]
	}
	for assigned < stages {
		best := -1
		for v := range alloc {
			if best < 0 || rem[v] > rem[best] {
				best = v
			}
		}
		alloc[best]++
		rem[best] = 0
		assigned++
	}
}

// applyMode switches a router's operation mode, handling the power-state
// transitions in and out of mode 0.
func (n *Network) applyMode(r *Router, mode Mode) {
	if mode == ModeBypass && !n.cfg.Bypass {
		mode = ModeCRC // bypass hardware absent: degrade gracefully
	}
	prev := r.mode
	r.mode = mode
	n.rBypassMode[r.id] = mode == ModeBypass
	if prev != mode {
		n.emit(Event{Cycle: n.cycle, Kind: EvModeChange, Router: r.id, Mode: mode})
	}
	if prev == ModeBypass && mode != ModeBypass && n.rGated[r.id] && n.triggerWake(r) {
		n.emit(Event{Cycle: n.cycle, Kind: EvWake, Router: r.id})
	}
	n.flushStatic(r)
}

// CheckInvariants validates the network's conservation laws. At any
// time: no packet flit may have been delivered out of order or have found
// no record of its packet; the packet records must be exactly those of
// the started, unretired packets (checkRecords); the O(1)
// counters, the occupied-VC masks and the earliest-ready slots and router
// words must mirror the buffers and channels; the gated-router count, the
// bypass-mode mirror and every NIC's eligibility word must match their
// recomputation, and each prepaid window counter must cover the current
// occupancy to the window's end; every VC ring must lie within BufDepth;
// and every credited output VC's credits plus the flits it has in flight
// downstream must equal its share. On a fully drained network every
// output VC must also be released, and every buffer, channel and NIC must
// be empty (so every credit has returned). It returns nil when all
// invariants hold.
func (n *Network) CheckInvariants() error {
	if n.orderViolations > 0 {
		return fmt.Errorf("noc: %d out-of-order flit deliveries", n.orderViolations)
	}
	if n.lostFlits > 0 {
		return fmt.Errorf("noc: %d flits found no record of their packet", n.lostFlits)
	}
	// The O(1) buffered-flit counters must mirror the buffers exactly at
	// all times — the pipeline-skip and fast-forward paths rely on them.
	// So must the occupied-VC masks and the earliest-ready slab, which
	// the pipeline and delivery scans trust to skip idle VCs and ports.
	// The fixed-capacity rings rely on the BufDepth bound that delivery
	// and injection enforce.
	vcs, depth := n.cfg.VCs, n.cfg.BufDepth
	if left := n.winEnd - n.cycle; left < 1 || left > int64(n.cfg.TimeStepCycles) {
		return fmt.Errorf("noc: window ends at cycle %d, not within one time step after cycle %d", n.winEnd, n.cycle)
	}
	total, gated := 0, 0
	for id, r := range n.routers {
		cnt := 0
		var occVC uint64
		rowMin := int64(noReady)
		for p := 0; p < NumPorts; p++ {
			occ := 0
			minReady := int64(noReady)
			if ip := r.in[p]; ip != nil {
				for v := 0; v < vcs; v++ {
					i := n.vcIndex(id, p, v)
					ivc := &n.ivcs[i]
					if ivc.n < 0 || int(ivc.n) > depth || ivc.head < 0 || int(ivc.head) >= depth {
						return fmt.Errorf("noc: router %d %s vc%d ring head %d length %d outside BufDepth %d",
							id, PortName(p), v, ivc.head, ivc.n, depth)
					}
					for k := 0; k < int(ivc.n); k++ {
						if n.vcAt(i, k) == nil {
							return fmt.Errorf("noc: router %d %s vc%d ring entry %d is empty", id, PortName(p), v, k)
						}
					}
					if ivc.n > 0 {
						occVC |= 1 << (p*vcs + v)
					}
					occ += int(ivc.n)
				}
				if ip.ch != nil {
					minReady = ip.ch.scanMinReady()
				}
			}
			if int(n.portOcc[id*NumPorts+p]) != occ {
				return fmt.Errorf("noc: router %d %s portOcc = %d, buffers hold %d",
					id, PortName(p), n.portOcc[id*NumPorts+p], occ)
			}
			if got := n.inMinReady[id*NumPorts+p]; got != minReady {
				return fmt.Errorf("noc: router %d %s inMinReady = %d, channel's earliest readyAt is %d",
					id, PortName(p), got, minReady)
			}
			rowMin = min(rowMin, minReady)
			// The prepaid window counter must already cover the current
			// occupancy for every cycle left in the window.
			if k := id*NumPorts + p; n.winOcc[k] < uint64(occ)*uint64(n.winEnd-n.cycle) {
				return fmt.Errorf("noc: router %d %s window occupancy prepaid %d, below %d flits for %d cycles",
					id, PortName(p), n.winOcc[k], occ, n.winEnd-n.cycle)
			}
			cnt += occ
		}
		if n.rMinReady[id] != rowMin {
			return fmt.Errorf("noc: router %d rMinReady = %d, its channels' earliest readyAt is %d", id, n.rMinReady[id], rowMin)
		}
		if n.staticFrom[id] > n.cycle {
			return fmt.Errorf("noc: router %d static span starts at cycle %d, after the current cycle %d", id, n.staticFrom[id], n.cycle)
		}
		if n.rGated[id] {
			gated++
		}
		if n.rBypassMode[id] != (r.mode == ModeBypass) {
			return fmt.Errorf("noc: router %d rBypassMode = %v in mode %v", id, n.rBypassMode[id], r.mode)
		}
		if got, want := n.nicReady[id], n.nicWake(n.nics[id]); got != want {
			return fmt.Errorf("noc: NIC %d eligibility word = %d, its queue and window allow injection from cycle %d", id, got, want)
		}
		// An idle CP router's power check must still come due: at the
		// next cycle at the earliest, one full idle streak away at most.
		if n.cpGate && n.active(id) && n.idle(id) {
			if at, last := n.gateAt[id], n.cycle-1+n.gateDelay(); at < n.cycle || at > last {
				return fmt.Errorf("noc: idle router %d gates at cycle %d, outside cycles %d..%d", id, at, n.cycle, last)
			}
		}
		if n.rOccVC[id] != occVC {
			return fmt.Errorf("noc: router %d rOccVC = %#x, buffers occupy %#x", id, n.rOccVC[id], occVC)
		}
		if cnt != int(n.rBufCount[id]) {
			return fmt.Errorf("noc: router %d bufCount = %d, buffers hold %d", id, n.rBufCount[id], cnt)
		}
		total += cnt
	}
	if total != n.bufferedFlits {
		return fmt.Errorf("noc: bufferedFlits = %d, buffers hold %d", n.bufferedFlits, total)
	}
	if gated != n.nGated {
		return fmt.Errorf("noc: nGated = %d, %d routers are gated", n.nGated, gated)
	}
	if err := n.checkCredits(); err != nil {
		return err
	}
	if err := n.checkRecords(); err != nil {
		return err
	}
	if !n.Drained() {
		return nil // the remaining checks only hold at quiescence
	}
	for id, r := range n.routers {
		for p := 0; p < NumPorts; p++ {
			if ip := r.in[p]; ip != nil {
				if ip.ch != nil && ip.ch.len() != 0 {
					return fmt.Errorf("noc: router %d %s channel holds %d flits after drain", id, PortName(p), ip.ch.len())
				}
				if occ := n.portOccupancy(id, p); occ != 0 {
					return fmt.Errorf("noc: router %d %s buffers hold %d flits after drain", id, PortName(p), occ)
				}
			}
			if r.out[p] == nil {
				continue
			}
			for v := 0; v < vcs; v++ {
				if n.vcBusy[n.vcIndex(id, p, v)] {
					return fmt.Errorf("noc: router %d %s vc%d still allocated after drain", id, PortName(p), v)
				}
			}
		}
		if n.nics[id].pending() {
			return fmt.Errorf("noc: router %d NIC still pending after drain", id)
		}
	}
	return nil
}

// checkRecords audits the packet-record slab. The free list must name
// exactly the free slots. Every flit in a buffer or channel must name a
// live record of its own packet, so a reused slot cannot alias another
// packet unnoticed. The live records must be exactly the started,
// unretired packets: the NICs' current packets, their end-to-end retries
// (held by nothing else) and the packets with a flit in the network.
// Each NIC's waiting packets must be in increasing id order, and every
// admitted packet must be waiting or live.
func (n *Network) checkRecords() error {
	live := 0
	for s := range n.recs {
		if n.recs[s].flits > 0 {
			live++
		}
	}
	if live != n.liveRecs() {
		return fmt.Errorf("noc: %d live packet records, but the free list leaves %d", live, n.liveRecs())
	}
	for _, s := range n.recFree {
		if n.recs[s].flits != 0 {
			return fmt.Errorf("noc: free list names slot %d, which holds packet %d", s, n.recs[s].id)
		}
	}
	held := make([]bool, len(n.recs))
	started, waiting := 0, 0
	hold := func(s int32) {
		if !held[s] {
			held[s] = true
			started++
		}
	}
	for id, q := range n.nics {
		if q.cur >= 0 {
			if n.recs[q.cur].flits == 0 {
				return fmt.Errorf("noc: NIC %d streams from free slot %d", id, q.cur)
			}
			hold(q.cur)
		}
		next := uint64(0)
		for i, t := range q.wait[q.head:] {
			if t.id < next || t.id >= n.nextPacketID {
				return fmt.Errorf("noc: NIC %d waiting packet %d has id %d, out of increasing order below %d",
					id, i, t.id, n.nextPacketID)
			}
			next = t.id + 1
		}
		waiting += q.queued()
	}
	inFlight := func(f *Flit) error {
		if n.recOf(f) == nil {
			return fmt.Errorf("noc: flit %d of packet %d names slot %d, which holds no record of it", f.ID, f.PacketID, f.rec)
		}
		hold(f.rec)
		return nil
	}
	for i := range n.ivcs {
		for k := 0; k < int(n.ivcs[i].n); k++ {
			if err := inFlight(n.vcAt(i, k)); err != nil {
				return err
			}
		}
	}
	for k := range n.chans {
		for i := 0; i < n.chans[k].len(); i++ {
			if err := inFlight(n.chans[k].at(i).flit); err != nil {
				return err
			}
		}
	}
	for id, q := range n.nics {
		for _, s := range q.retry {
			if n.recs[s].flits == 0 || held[s] {
				return fmt.Errorf("noc: NIC %d retries slot %d, which is free or held elsewhere", id, s)
			}
			hold(s)
		}
	}
	if live != started {
		return fmt.Errorf("noc: %d live packet records, but %d packets are started and unretired", live, started)
	}
	if waiting+live != n.outstanding {
		return fmt.Errorf("noc: %d packets outstanding, but %d wait and %d are live", n.outstanding, waiting, live)
	}
	return nil
}

// checkCredits audits the credit slab. An ejection sink must hold the
// uncredited sentinel. A credited output VC's credit is taken when a flit
// is sent and returned when the flit leaves the downstream router's
// channel+buffer storage, so at every step boundary its credits plus the
// flits of that VC in the channel and in the downstream input VC's buffer
// equal its share (the current capacity; credits may go transiently
// negative after a buffer action shrinks it). The port's shares always
// sum to the full VCs*BufDepth + ChannelStages storage: buffer actions
// move stages between VCs but never create or destroy them (the
// ChannelStages%VCs != 0 remainder included).
func (n *Network) checkCredits() error {
	vcs := n.cfg.VCs
	wantPortShare := vcs*n.cfg.BufDepth + n.cfg.ChannelStages
	for id, r := range n.routers {
		for p := 0; p < NumPorts; p++ {
			op := r.out[p]
			if op == nil {
				continue
			}
			base := n.vcIndex(id, p, 0)
			if op.ch == nil {
				for v := 0; v < vcs; v++ {
					if c := n.credits[base+v]; c != uncredited {
						return fmt.Errorf("noc: router %d %s vc%d ejection credits = %d, want the uncredited sentinel",
							id, PortName(p), v, c)
					}
				}
				continue
			}
			var held [maxVCs]int
			for k := 0; k < op.ch.len(); k++ {
				vc := op.ch.at(k).vc
				if vc < 0 || vc >= vcs {
					return fmt.Errorf("noc: router %d %s channel entry %d on vc%d, outside %d VCs", id, PortName(p), k, vc, vcs)
				}
				held[vc]++
			}
			portShare := 0
			for v := 0; v < vcs; v++ {
				held[v] += int(n.ivcs[n.vcIndex(op.downRouter, op.downPort, v)].n)
				if c, sh := int(n.credits[base+v]), int(n.share[base+v]); c+held[v] != sh {
					return fmt.Errorf("noc: router %d %s vc%d credits = %d with %d flits held downstream, want share %d",
						id, PortName(p), v, c, held[v], sh)
				}
				portShare += int(n.share[base+v])
			}
			if portShare != wantPortShare {
				return fmt.Errorf("noc: router %d %s credit share sum = %d, want %d (VCs*BufDepth + ChannelStages)",
					id, PortName(p), portShare, wantPortShare)
			}
		}
	}
	return nil
}

// SetInitialMode puts every router in the given mode before the first
// time step (the paper initializes all routers to mode 1).
func (n *Network) SetInitialMode(mode Mode) {
	for _, r := range n.routers {
		n.applyMode(r, mode)
	}
}

// Drained reports whether the workload is fully delivered.
func (n *Network) Drained() bool {
	return n.gen.Exhausted() && n.outstanding == 0
}

// Result aggregates a finished run.
type Result struct {
	Cycles           int64
	PacketsDelivered uint64
	PacketsFailed    uint64
	FlitsDelivered   uint64
	AvgLatency       float64
	P95Latency       float64
	P99Latency       float64
	StaticJoules     float64
	DynamicJoules    float64
	HopRetransmits   uint64
	E2ERetransmits   uint64
	ModeBreakdown    stats.ModeBreakdown
	GatedCycles      uint64
	// ControlFaults counts parity-detected routing-table/BST upsets
	// (future-work extension; see Config.ControlFaultRate).
	ControlFaults  uint64
	ErrorHistogram [4]uint64
	// MTTFSeconds is the network's extrapolated mean time to failure,
	// combining per-router FITs as a series system (failures-in-time
	// add), per the Shin et al. architectural reliability framework the
	// paper uses for its FIT/MTTF numbers.
	MTTFSeconds float64
	// WorstMTTFSeconds is the single most-stressed router's MTTF.
	WorstMTTFSeconds float64
	AvgTempC         float64
	MaxTempC         float64
	Deadlocked       bool
}

// TotalJoules returns the run's total energy.
func (r Result) TotalJoules() float64 { return r.StaticJoules + r.DynamicJoules }

// EnergyEfficiency implements the paper's eq. 8:
// [(Pstatic+Pdynamic)·Texec]^-1, in 1/(W·s).
func (r Result) EnergyEfficiency() float64 {
	if r.Cycles == 0 {
		return 0
	}
	seconds := float64(r.Cycles) / power.ClockHz
	totalPower := r.TotalJoules() / seconds
	if totalPower <= 0 {
		return math.Inf(1)
	}
	return 1 / (totalPower * seconds)
}

// RetransmittedFlits returns hop-level plus end-to-end retransmissions.
func (r Result) RetransmittedFlits() uint64 { return r.HopRetransmits + r.E2ERetransmits }

// RunUntilDrained steps the network until the workload completes or
// maxCycles elapse, then returns the aggregated result.
func (n *Network) RunUntilDrained(maxCycles int64) (Result, error) {
	return n.RunContext(nil, maxCycles)
}

// RunContext is RunUntilDrained with cooperative cancellation: the context
// is polled every few steps, and on cancellation the partial result
// accumulated so far is returned together with an error wrapping
// ctx.Err(). A nil ctx (what RunUntilDrained passes) skips the polling
// entirely, so the uncancellable path costs nothing extra. Cancellation
// never perturbs a run that completes: the simulation state advances
// exactly as without a context until the moment the run stops.
func (n *Network) RunContext(ctx context.Context, maxCycles int64) (Result, error) {
	const stallLimit = 100_000
	const ctxPollInterval = 256 // steps between ctx.Err() polls
	poll := 0
	for !n.Drained() && n.cycle < maxCycles {
		if ctx != nil {
			if poll++; poll >= ctxPollInterval {
				poll = 0
				if err := ctx.Err(); err != nil {
					return n.Snapshot(), fmt.Errorf("noc: run canceled at cycle %d: %w", n.cycle, err)
				}
			}
		}
		n.step(maxCycles)
		// The stall clock runs only while packets are outstanding; an idle
		// gap in the workload is not a stall (admitStep restarts it).
		if n.outstanding > 0 && n.cycle-n.lastProgress > stallLimit {
			res := n.Snapshot()
			res.Deadlocked = true
			return res, fmt.Errorf("noc: no progress for %d cycles at cycle %d (%d packets outstanding)",
				stallLimit, n.cycle, n.outstanding)
		}
	}
	return n.Snapshot(), nil
}

// Snapshot returns the metrics accumulated so far. It changes no state,
// so calling it mid-run leaves the run bit-identical.
func (n *Network) Snapshot() Result {
	var res Result
	res.Cycles = n.cycle
	res.PacketsDelivered = n.pktsDelivered
	res.PacketsFailed = n.pktsFailed
	res.FlitsDelivered = n.flitsDelivered
	res.AvgLatency = n.latency.Mean()
	res.P95Latency = n.latency.Percentile(95)
	res.P99Latency = n.latency.Percentile(99)
	for i, m := range n.meters {
		res.StaticJoules += n.staticJoules(i)
		res.DynamicJoules += m.DynamicJoules
	}
	res.HopRetransmits = n.hopRetransmits
	res.E2ERetransmits = n.e2eRetransmits
	res.ModeBreakdown = n.modeBreakdown
	res.GatedCycles = n.gatedCycles
	res.ControlFaults = n.controlFaults
	res.ErrorHistogram = n.errHist
	worst := math.Inf(1)
	fitSum := 0.0
	for i := range n.wear {
		m := n.aging.MTTFSeconds(n.wear[i])
		if m < worst {
			worst = m
		}
		if !math.IsInf(m, 1) && m > 0 {
			fitSum += 1 / m
		}
	}
	res.WorstMTTFSeconds = worst
	if fitSum > 0 {
		res.MTTFSeconds = 1 / fitSum
	} else {
		res.MTTFSeconds = math.Inf(1)
	}
	if n.tempSamples > 0 {
		res.AvgTempC = n.tempSum / float64(n.tempSamples)
	}
	res.MaxTempC = n.grid.Max()
	return res
}
