package noc

import (
	"math"

	"intellinoc/internal/ecc"
	"intellinoc/internal/stats"
)

// inputVC is the pipeline state of one input virtual channel, together
// with the head and length of its flit ring. The records live in one
// network-wide slab, Network.ivcs, indexed by vcIndex(id, p, v) =
// id*NumPorts*VCs + p*VCs + v: the bit numbering of rOccVC and of the
// switch-allocation request masks, so a mask scan addresses its router's
// row directly. The ring itself is the matching BufDepth-entry stretch of
// Network.vcBuf.
type inputVC struct {
	// routedAt is the cycle RC completed, enforcing the one-cycle VA
	// stage; vaAt is the cycle VA completed, enforcing SA timing.
	routedAt int64
	vaAt     int64
	// head is the ring index of the oldest buffered flit; n counts the
	// buffered flits (0 <= n <= BufDepth).
	head, n int32
	// route is the output port of the packet at the head (-1 until RC).
	route int8
	// vcClass is the dateline VC class the topology assigned to the
	// head packet's next hop (-1 = unrestricted), set alongside route.
	vcClass int8
	// outVC is the downstream VC granted by VA (-1 until allocated).
	outVC int8
}

func (v *inputVC) reset() {
	v.route, v.outVC = -1, -1
	v.vcClass = -1
	v.routedAt, v.vaAt = -1, -1
}

// inputPort is one of the five router input ports. Its VC records and
// buffers are rows of the network slabs (Network.ivcs, Network.vcBuf),
// addressed by the router id and port.
type inputPort struct {
	ch *Channel // incoming link (nil for the local port)
	// upCredits is the credit-slab index (Network.credits) of VC 0 of the
	// upstream output port feeding ch, or -1 for local/edge ports: a
	// switch-allocation pop returns the freed slot's credit through it
	// without chasing the upstream router.
	upCredits int

	// winFlitsIn counts window deliveries for the RL state vector. The
	// companion summed-occupancy counter lives in Network.winOcc, a flat
	// slab updated at every buffer mutation instead of behind two pointer
	// hops.
	winFlitsIn uint64
}

// outputPort is one of the five router output ports. Its per-VC state —
// credits, share, vcBusy and winVCFlits — lives in the network slabs of
// the same names, indexed like the input VCs by vcIndex(id, p, v).
type outputPort struct {
	ch         *Channel // outgoing link (nil for local ejection / edge)
	downRouter int      // -1 for local/edge
	downPort   int      // input port index at the downstream router
	saRR       int      // switch-allocation round-robin pointer
	vaRR       int      // VC-allocation round-robin pointer

	winFlitsOut uint64
}

// uncredited is the credit-slab value of an ejection sink's VCs (output
// ports with no channel). Ejection needs no credit, so the sentinel
// passes every "credits > 0" test and is never decremented: the switch
// allocator and the bypass checks need not load the port to learn it is
// a sink.
const uncredited = math.MaxInt32

// vcIndex is the slab index of VC v at port p of router id.
func (n *Network) vcIndex(id, p, v int) int { return (id*NumPorts+p)*n.cfg.VCs + v }

// freeVC returns the first output VC of router r's port p, in
// round-robin order from the port's vaRR, that is unallocated, belongs to
// the dateline VC class (VC v is in class v % classes; class < 0 is
// unrestricted) and — with withCredit — holds a credit, and advances vaRR
// past it; -1 if there is none. The bypass switch asks for a credit
// because it allocates and transmits in the same cycle; ejection sinks
// always pass (uncredited).
func (n *Network) freeVC(r *Router, p, class int, withCredit bool) int {
	op := r.out[p]
	vcs := n.cfg.VCs
	base := n.vcIndex(r.id, p, 0)
	busy := n.vcBusy[base : base+vcs]
	credits := n.credits[base : base+vcs]
	for i := 0; i < vcs; i++ {
		v := (op.vaRR + i) % vcs
		if busy[v] || (class >= 0 && v%n.vcClasses != class) || (withCredit && credits[v] <= 0) {
			continue
		}
		op.vaRR = (v + 1) % vcs
		return v
	}
	return -1
}

// vcAt returns the k-th buffered flit of input VC i (slab index),
// counting from the oldest (0 <= k < n).
func (n *Network) vcAt(i, k int) *Flit {
	depth := n.cfg.BufDepth
	j := int(n.ivcs[i].head) + k
	if j >= depth {
		j -= depth
	}
	return n.vcBuf[i*depth+j]
}

// vcPush appends f to input VC i's ring. Callers have checked that the
// VC holds fewer than BufDepth flits.
func (n *Network) vcPush(i int, f *Flit) {
	ivc := &n.ivcs[i]
	depth := n.cfg.BufDepth
	j := int(ivc.head + ivc.n)
	if j >= depth {
		j -= depth
	}
	n.vcBuf[i*depth+j] = f
	ivc.n++
}

// vcPop removes and returns input VC i's oldest flit.
func (n *Network) vcPop(i int) *Flit {
	ivc := &n.ivcs[i]
	depth := n.cfg.BufDepth
	k := i*depth + int(ivc.head)
	f := n.vcBuf[k]
	n.vcBuf[k] = nil // release the reference for the flit free-list
	if ivc.head++; int(ivc.head) == depth {
		ivc.head = 0
	}
	ivc.n--
	return f
}

// portOccupancy sums the buffered flits of router id's input port p.
func (n *Network) portOccupancy(id, p int) int {
	occ := 0
	base := n.vcIndex(id, p, 0)
	for _, ivc := range n.ivcs[base : base+n.cfg.VCs] {
		occ += int(ivc.n)
	}
	return occ
}

// Router is one mesh router. The per-cycle hot fields — power state
// (gated/waking/idle, and whether the mode is bypass), the buffered-flit
// count, the occupied-VC mask, the earliest channel flit and the start of
// the static-power span — live in flat Network slabs indexed by router id
// (rGated, rWaking, rIdle, rBypassMode, rBufCount, rOccVC, rMinReady,
// staticFrom), so the sharded scans walk contiguous memory instead of
// chasing one pointer per router.
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

	// Static-power accounting: the (scheme, gated) state the unbanked
	// span since Network.staticFrom belongs to, refreshed on transitions.
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
