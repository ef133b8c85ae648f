package noc

// Phase 2 of the tick (see Network.step): power gating and wake-up, and
// the static-energy spans they bank. The shard pool runs it (shard.go).

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
		n.gate(r, cy, slot)
		return
	}
	// CP-style idle gating: the caller visits an ungated router only at
	// its deadline (gateAt <= cy). Idle there, it has been idle for
	// IdleGateCycles checks and powers down; busy, it drops the deadline
	// until a drain re-arms it.
	if n.cpGate {
		if n.idle(id) {
			n.gate(r, cy, slot)
		} else {
			n.gateAt[id] = noReady
		}
	}
}

// gate powers router r down. It banks the static span while rGated is
// still false, so the gated span is charged as ungated (see ROADMAP.md).
func (n *Network) gate(r *Router, cy int64, slot *shardSlot) {
	n.flushStatic(r)
	n.rGated[r.id] = true
	slot.gatedDelta++
	n.emitGate(slot, Event{Cycle: cy, Kind: EvGate, Router: r.id})
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
