package noc

import (
	"math/bits"
)

// Phase 4 of the tick (see Network.step): the router pipeline (RC, VA,
// SA and ST) and the bypass switch of gated routers, in router order on
// the coordinator.

// routerPhase runs step phase 4, the router pipelines (or bypass
// switches): sa;va;rc fused per router in router order on the
// coordinator, at every shard count, touching each router's VC state
// once. Arbitration returns credits upstream at once, and a
// higher-numbered router sees them this same cycle (see shard.go), so the
// order is part of the semantics. A router whose input buffers are empty
// has nothing for RC/VA/SA to do — skip its port×VC scans outright.
// Buffered flits imply an active router (a router gates only once
// drained, and nothing is delivered to or injected into a gated or waking
// one), so the buffered-flit count is the one word tested per router;
// only bypass designs also read the gated flag, and only for drained
// routers. A gated router's bypass switch runs only when a channel flit
// or its NIC is due: with neither, every port's peek refuses without side
// effects.
func (n *Network) routerPhase(cy int64) {
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
		n.forward(r, ivc, f, EvTraverse, cy)
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
		n.routeHead(r.id, ivc, f, cy)
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

// routeHead stores head flit f's route at router id in its input VC ivc.
func (n *Network) routeHead(id int, ivc *inputVC, f *Flit, cy int64) {
	route, class := n.topo.Route(id, f.Src, f.Dst)
	ivc.route, ivc.vcClass = int8(route), int8(class)
	ivc.routedAt = cy
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
		route, class := n.topo.Route(r.id, f.Src, f.Dst)
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
		n.routeHead(r.id, ivc, f, cy)
		n.allocVC(r, ivc, cy, true) // bypassCanForward saw a free VC
		n.recordHop(f, r.id)
	}
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
	n.forward(r, ivc, f, EvBypass, cy)
	return true
}

// forward sends flit f out of router r on the output VC its input VC ivc
// holds, releasing that VC on a tail flit: into the ejection sink, or
// onto the link with the VC's credit taken and an event of kind emitted.
func (n *Network) forward(r *Router, ivc *inputVC, f *Flit, kind EventKind, cy int64) {
	outP, outVC := int(ivc.route), int(ivc.outVC)
	out := n.vcIndex(r.id, outP, outVC)
	if f.Type.IsTail() {
		n.vcBusy[out] = false
		ivc.reset()
	}
	op := r.out[outP]
	if op.ch == nil {
		n.eject(r, f, cy)
		return
	}
	f.VC = outVC
	n.credits[out]--
	n.winVCFlits[out]++
	n.emitFlit(cy, kind, r.id, f)
	n.sendOnLink(r, op, f, cy)
}
