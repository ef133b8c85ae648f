package noc

import (
	"math"
)

// Phase 5 of the tick (see Network.step): each NIC streams its current
// packet into its router's local input port (or, at a gated router, through
// the bypass switch).

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
	n.bufferFlit(r.id, PortLocal, f.VC, f, cy)
	n.bufferedFlits++
	n.emitFlit(cy, EvInject, r.id, f)
	n.lastProgress = cy
}
