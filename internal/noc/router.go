package noc

import (
	"intellinoc/internal/ecc"
	"intellinoc/internal/stats"
)

// inputVC is one virtual-channel FIFO at a router input port, together
// with the pipeline state of the packet currently at its head.
type inputVC struct {
	buf []*Flit
	// route is the output port of the packet at the head (-1 until RC).
	route int
	// vcClass is the dateline VC class the topology assigned to the
	// head packet's next hop (-1 = unrestricted), set alongside route.
	vcClass int
	// outVC is the downstream VC granted by VA (-1 until allocated).
	outVC int
	// routedAt is the cycle RC completed, enforcing the one-cycle VA
	// stage; vaAt is the cycle VA completed, enforcing SA timing.
	routedAt int64
	vaAt     int64
}

func (v *inputVC) reset() {
	v.route, v.outVC = -1, -1
	v.vcClass = -1
	v.routedAt, v.vaAt = -1, -1
}

// inputPort is one of the five router input ports.
type inputPort struct {
	ch *Channel // incoming link (nil for the local port)
	// upCredits aliases the upstream output port's per-VC credits (nil
	// for local/edge ports): a switch-allocation pop returns the freed
	// slot's credit through it without chasing the upstream router.
	upCredits []int
	vcs       []inputVC

	// winFlitsIn counts window deliveries for the RL state vector. The
	// companion summed-occupancy counter lives in Network.winOcc — the
	// accounting phase touches it every cycle for every port, so it is
	// kept in a flat slab instead of behind two pointer hops.
	winFlitsIn uint64
}

func (ip *inputPort) occupancy() int {
	n := 0
	for i := range ip.vcs {
		n += len(ip.vcs[i].buf)
	}
	return n
}

// outputPort is one of the five router output ports.
type outputPort struct {
	ch         *Channel // outgoing link (nil for local ejection / edge)
	downRouter int      // -1 for local/edge
	downPort   int      // input port index at the downstream router
	// credits tracks free downstream router-buffer slots per VC; it is
	// the flow-control mechanism when there is no channel storage
	// (baseline wires). With channel buffers, channel occupancy itself
	// is the back-pressure and credits are unused.
	credits []int
	// share is each VC's current credit capacity: the static vcCredits
	// split until a BufferController repartitions the channel stages
	// (applyBufferAction). credits always reconverge to share at
	// quiescence; CheckInvariants enforces it.
	share []int
	// vcBusy marks downstream VCs currently allocated to a packet of
	// this router (released when the tail flit departs).
	vcBusy []bool
	saRR   int // switch-allocation round-robin pointer
	vaRR   int // VC-allocation round-robin pointer

	winFlitsOut uint64
	// winVCFlits counts window transmissions per VC — the per-VC demand
	// signal BufActionDemand/Concentrate/Reserve reallocate by.
	winVCFlits []uint64
}

func (op *outputPort) freeVC() int {
	for i := 0; i < len(op.vcBusy); i++ {
		v := (op.vaRR + i) % len(op.vcBusy)
		if !op.vcBusy[v] {
			op.vaRR = (v + 1) % len(op.vcBusy)
			return v
		}
	}
	return -1
}

// freeVCWithCredit is freeVC restricted to VCs that can also accept a
// flit immediately — the bypass switch allocates and transmits in the
// same cycle, so it needs both.
func (op *outputPort) freeVCWithCredit() int {
	for i := 0; i < len(op.vcBusy); i++ {
		v := (op.vaRR + i) % len(op.vcBusy)
		if !op.vcBusy[v] && op.credits[v] > 0 {
			op.vaRR = (v + 1) % len(op.vcBusy)
			return v
		}
	}
	return -1
}

// freeVCIn is freeVC restricted to the topology's dateline VC class
// (VC v belongs to class v % classes); class < 0 is the unrestricted
// path, byte-for-byte the legacy round-robin so mesh results stay
// bit-identical.
func (op *outputPort) freeVCIn(class, classes int) int {
	if class < 0 {
		return op.freeVC()
	}
	for i := 0; i < len(op.vcBusy); i++ {
		v := (op.vaRR + i) % len(op.vcBusy)
		if v%classes == class && !op.vcBusy[v] {
			op.vaRR = (v + 1) % len(op.vcBusy)
			return v
		}
	}
	return -1
}

// freeVCWithCreditIn is freeVCWithCredit restricted to a VC class.
func (op *outputPort) freeVCWithCreditIn(class, classes int) int {
	if class < 0 {
		return op.freeVCWithCredit()
	}
	for i := 0; i < len(op.vcBusy); i++ {
		v := (op.vaRR + i) % len(op.vcBusy)
		if v%classes == class && !op.vcBusy[v] && op.credits[v] > 0 {
			op.vaRR = (v + 1) % len(op.vcBusy)
			return v
		}
	}
	return -1
}

// Router is one mesh router. The per-cycle hot fields — power state
// (gated/waking/idle), the buffered-flit count, the occupied-VC mask, and
// the static-power accounting cycles — live in flat Network slabs indexed
// by router id (rGated, rWaking, rIdle, rBufCount, rOccVC, rStatic), so
// the sharded scans walk contiguous memory instead of chasing one pointer
// per router.
type Router struct {
	id, x, y int
	in       [NumPorts]*inputPort
	out      [NumPorts]*outputPort

	// mode is the operation mode in force this time step.
	mode Mode

	// Bypass wormhole lock: while a packet streams through the bypass
	// switch, it holds the switch until its tail passes.
	bypassLock int // input port, or -1
	bypassRR   int

	// Static-power accounting: the (scheme, gated) state the accumulated
	// cycles (Network.rStatic) belong to, refreshed on transitions.
	lastScheme ecc.Scheme
	lastGated  bool

	// Per-window observables.
	winEjectLatency stats.Summary
	winErrHist      [4]uint64
	winHopRetrans   uint64
	winEnergyStart  float64
	lastAvgLatency  float64
}

// active reports whether router id's normal pipeline runs this cycle.
func (n *Network) active(id int) bool { return !n.rGated[id] && n.rWaking[id] == 0 }

// empty reports whether router id's input buffers are drained (the
// precondition for gating: Section 3.3 gates only idle routers).
// rBufCount mirrors the per-VC buffer contents exactly, so this is O(1).
func (n *Network) empty(id int) bool { return n.rBufCount[id] == 0 }

// schemeOf returns the ECC scheme active on r's output links.
func (n *Network) schemeOf(r *Router) ecc.Scheme {
	if n.rGated[r.id] {
		// Encoders are powered off on a gated router; only the
		// end-to-end CRC protects bypass hops.
		return ecc.SchemeCRC
	}
	return r.mode.Scheme()
}

// relaxedLinks reports whether r's output links run in relaxed-timing
// mode.
func (n *Network) relaxedLinks(r *Router) bool { return !n.rGated[r.id] && r.mode.Relaxed() }
