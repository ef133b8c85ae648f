package noc

// Phase 1 of the tick (see Network.step): workload packets enter their
// NICs as trace records. A packet takes a record from the record slab
// only when it starts to inject.

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
