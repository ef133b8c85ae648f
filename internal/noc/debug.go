package noc

import (
	"fmt"
	"io"
)

// dumpWaiting bounds the waiting packets DumpState lists per NIC; a
// closed loop can back up thousands.
const dumpWaiting = 8

// DumpState writes a human-readable snapshot of every router's pipeline,
// buffer, channel and power state, and of every busy NIC's current
// packet, end-to-end retries and waiting packets — the first tool to
// reach for when a configuration wedges.
func (n *Network) DumpState(w io.Writer) {
	fmt.Fprintf(w, "cycle=%d outstanding=%d genExhausted=%v\n", n.cycle, n.outstanding, n.gen.Exhausted())
	fmt.Fprintf(w, "records: live=%d slab=%d free=%d flitPool=%d\n", n.liveRecs(), len(n.recs), len(n.recFree), len(n.flitPool))
	for id, r := range n.routers {
		busy := false
		for p := 0; p < NumPorts; p++ {
			if r.in[p] != nil && n.portOccupancy(id, p) > 0 {
				busy = true
			}
			if r.in[p] != nil && r.in[p].ch != nil && r.in[p].ch.len() > 0 {
				busy = true
			}
		}
		q := n.nics[id]
		if q.pending() {
			busy = true
		}
		if !busy {
			continue
		}
		fmt.Fprintf(w, "router %d (%d,%d) mode=%s gated=%v waking=%d\n", id, r.x, r.y, r.mode, n.rGated[id], n.rWaking[id])
		if q.pending() {
			cur := "none"
			if q.cur >= 0 {
				pi := &n.recs[q.cur]
				cur = fmt.Sprintf("pkt%d flit %d/%d vc=%d", pi.id, q.nextIdx, pi.flits, q.curVC)
			}
			fmt.Fprintf(w, "  nic: cur=%s outstanding=%d\n", cur, q.outstanding)
			if k := len(q.retry); k > 0 {
				fmt.Fprint(w, "  nic retries (next first):")
				for i := k - 1; i >= 0; i-- {
					pi := &n.recs[q.retry[i]]
					fmt.Fprintf(w, " [pkt%d retry%d notBefore=%d]", pi.id, pi.retries, pi.notBefore)
				}
				fmt.Fprintln(w)
			}
			if k := q.queued(); k > 0 {
				fmt.Fprintf(w, "  nic waiting=%d:", k)
				for i, t := range q.wait[q.head:] {
					if i == dumpWaiting {
						fmt.Fprintf(w, " +%d more", k-i)
						break
					}
					fmt.Fprintf(w, " [pkt%d dst=%d flits=%d t=%d gap=%d]", t.id, t.dst, t.flits, t.time, t.gap)
				}
				fmt.Fprintln(w)
			}
		}
		for p := 0; p < NumPorts; p++ {
			ip := r.in[p]
			if ip == nil {
				continue
			}
			if ip.ch != nil && ip.ch.len() > 0 {
				fmt.Fprintf(w, "  in[%s].ch:", PortName(p))
				for i := 0; i < ip.ch.len(); i++ {
					cf := ip.ch.at(i)
					fmt.Fprintf(w, " [pkt%d.%d %v vc%d@%d]", cf.flit.PacketID, cf.flit.Seq, cf.flit.Type, cf.flit.VC, cf.readyAt)
				}
				fmt.Fprintln(w)
			}
			for v := 0; v < n.cfg.VCs; v++ {
				i := n.vcIndex(id, p, v)
				ivc := &n.ivcs[i]
				if ivc.n == 0 && ivc.route < 0 {
					continue
				}
				fmt.Fprintf(w, "  in[%s].vc%d: route=%d outVC=%d buf=", PortName(p), v, ivc.route, ivc.outVC)
				for k := 0; k < int(ivc.n); k++ {
					f := n.vcAt(i, k)
					fmt.Fprintf(w, "[pkt%d.%d %v]", f.PacketID, f.Seq, f.Type)
				}
				fmt.Fprintln(w)
			}
		}
		for p := 0; p < NumPorts; p++ {
			if r.out[p] == nil {
				continue
			}
			base := n.vcIndex(id, p, 0)
			busy := n.vcBusy[base : base+n.cfg.VCs]
			for _, b := range busy {
				if b {
					fmt.Fprintf(w, "  out[%s]: vcBusy=%v credits=%v\n", PortName(p), busy, n.credits[base:base+n.cfg.VCs])
					break
				}
			}
		}
	}
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
