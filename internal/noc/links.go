package noc

import (
	"intellinoc/internal/ecc"
	"intellinoc/internal/fault"
)

// Phase 3 of the tick (see Network.step): channel delivery into router
// buffers. Also the link end of switch traversal: link latency, fault
// injection, hop-level retransmission and ejection.

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
		n.bufferFlit(r.id, p, vc, f, cy)
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

// bufferFlit writes flit f into input VC vc of router id's port p. The
// caller counts it in bufferedFlits (a shard through its slot).
func (n *Network) bufferFlit(id, p, vc int, f *Flit, cy int64) {
	k := id*NumPorts + p
	n.vcPush(n.vcIndex(id, p, vc), f)
	n.rOccVC[id] |= 1 << (p*n.cfg.VCs + vc)
	n.rBufCount[id]++
	n.occAdd(k, 1, cy)
	n.inPorts[k].winFlitsIn++
	n.meters[id].BufWrite()
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
