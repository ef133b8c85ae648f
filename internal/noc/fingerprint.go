package noc

import (
	"fmt"
	"math"
)

// This file is the divergence-probe surface for internal/diffcheck: a
// single visitor walks every piece of architectural state that two
// equivalent seeded runs must agree on, and both the cheap numeric
// Fingerprint and the nameable StateRecords are derived from it — one
// traversal, so the two views cannot drift apart.
//
// Excluded on purpose:
//   - Flit.Payload bytes (the VerifyPayloads pair legitimately differs
//     there; fault outcomes and everything downstream must still agree);
//   - PRNG internals (n.rng, payloadRng, the injector) — unreadable, and
//     any stream divergence surfaces immediately in the visited state;
//   - free-lists and scratch buffers (capacity-only, no semantics).

// stateField tags one kind of visited state. The tag, the router id and
// up to two sub-indices (port/VC/slot) identify a field instance.
type stateField uint8

const (
	fCycle stateField = iota
	fOutstanding
	fBufferedFlits
	fNextFlitID
	fNextPacketID
	fLastProgress
	fFlitsDelivered
	fPktsDelivered
	fPktsFailed
	fHopRetransmits
	fE2ERetransmits
	fCodecDisagree
	fOrderViolations
	fControlFaults
	fGatedCycles
	fNGated
	fErrHist
	fModeBreakdown
	fTempSum
	fTempSamples
	fLatencySummary
	fLatencyBucket
	fGridTemp
	fWear
	fMeterStatic
	fMeterDynamic
	fMeterEvents
	fLastTJ
	fThermAct
	fPktFlitsArrived
	fPktCorrupt
	fPktPathLen
	fPktPathHop
	fJob
	fNICQueueLen
	fNICQueueJob
	fNICCur
	fNICCurVC
	fNICNextIdx
	fNICVCRR
	fNICOutstanding
	fNICLastInject
	fNICLastTrace
	fNICSeenAny
	fRMode
	fRGated
	fRWaking
	fRGateAt
	fRBypassRR
	fRBufCount
	fRStaticCycles
	fRLastScheme
	fRLastGated
	fRWinEjectLat
	fRWinErrHist
	fRWinHopRetrans
	fRWinEnergyStart
	fRLastAvgLatency
	fInWinFlitsIn
	fInWinOccupancy
	fVCRoute
	fVCClass
	fVCOutVC
	fVCRoutedAt
	fVCVaAt
	fVCBufLen
	fVCBufFlit
	fChanLen
	fChanReadyAt
	fChanFlit
	fChanVC
	fOutCredit
	fOutVCBusy
	fOutSaRR
	fOutVaRR
	fOutWinFlitsOut
	fOutShare
	fOutWinVCFlits
	numStateFields
)

var stateFieldNames = [numStateFields]string{
	fCycle:           "cycle",
	fOutstanding:     "outstanding",
	fBufferedFlits:   "bufferedFlits",
	fNextFlitID:      "nextFlitID",
	fNextPacketID:    "nextPacketID",
	fLastProgress:    "lastProgress",
	fFlitsDelivered:  "flitsDelivered",
	fPktsDelivered:   "pktsDelivered",
	fPktsFailed:      "pktsFailed",
	fHopRetransmits:  "hopRetransmits",
	fE2ERetransmits:  "e2eRetransmits",
	fCodecDisagree:   "codecDisagree",
	fOrderViolations: "orderViolations",
	fControlFaults:   "controlFaults",
	fGatedCycles:     "gatedCycles",
	fNGated:          "nGated",
	fErrHist:         "errHist",
	fModeBreakdown:   "modeBreakdown",
	fTempSum:         "tempSum",
	fTempSamples:     "tempSamples",
	fLatencySummary:  "latencySummary",
	fLatencyBucket:   "latencyBucket",
	fGridTemp:        "gridTemp",
	fWear:            "wear",
	fMeterStatic:     "meterStaticJ",
	fMeterDynamic:    "meterDynamicJ",
	fMeterEvents:     "meterEvents",
	fLastTJ:          "lastTJ",
	fThermAct:        "thermAct",
	fPktFlitsArrived: "pkt.flitsArrived",
	fPktCorrupt:      "pkt.corrupt",
	fPktPathLen:      "pkt.pathLen",
	fPktPathHop:      "pkt.pathHop",
	fJob:             "pkt.job",
	fNICQueueLen:     "nic.queueLen",
	fNICQueueJob:     "nic.queueJob",
	fNICCur:          "nic.cur",
	fNICCurVC:        "nic.curVC",
	fNICNextIdx:      "nic.nextIdx",
	fNICVCRR:         "nic.vcRR",
	fNICOutstanding:  "nic.outstanding",
	fNICLastInject:   "nic.lastInject",
	fNICLastTrace:    "nic.lastTraceTime",
	fNICSeenAny:      "nic.seenAny",
	fRMode:           "router.mode",
	fRGated:          "router.gated",
	fRWaking:         "router.waking",
	fRGateAt:         "router.gateAt",
	fRBypassRR:       "router.bypassRR",
	fRBufCount:       "router.bufCount",
	fRStaticCycles:   "router.staticCycles",
	fRLastScheme:     "router.lastScheme",
	fRLastGated:      "router.lastGated",
	fRWinEjectLat:    "router.winEjectLatency",
	fRWinErrHist:     "router.winErrHist",
	fRWinHopRetrans:  "router.winHopRetrans",
	fRWinEnergyStart: "router.winEnergyStart",
	fRLastAvgLatency: "router.lastAvgLatency",
	fInWinFlitsIn:    "in.winFlitsIn",
	fInWinOccupancy:  "in.winOccupancy",
	fVCRoute:         "in.vc.route",
	fVCClass:         "in.vc.vcClass",
	fVCOutVC:         "in.vc.outVC",
	fVCRoutedAt:      "in.vc.routedAt",
	fVCVaAt:          "in.vc.vaAt",
	fVCBufLen:        "in.vc.bufLen",
	fVCBufFlit:       "in.vc.bufFlit",
	fChanLen:         "chan.len",
	fChanReadyAt:     "chan.readyAt",
	fChanFlit:        "chan.flit",
	fChanVC:          "chan.vc",
	fOutCredit:       "out.credit",
	fOutVCBusy:       "out.vcBusy",
	fOutSaRR:         "out.saRR",
	fOutVaRR:         "out.vaRR",
	fOutWinFlitsOut:  "out.winFlitsOut",
	fOutShare:        "out.share",
	fOutWinVCFlits:   "out.winVCFlits",
}

// String names the field for divergence reports.
func (f stateField) String() string {
	if int(f) < len(stateFieldNames) {
		return stateFieldNames[f]
	}
	return "unknown"
}

func u64f(v float64) uint64 { return math.Float64bits(v) }

func u64b(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// flitKey packs a flit's identity (everything except payload bytes) into
// one comparable word: id and packet id dominate; type/vc/seq/corrupt
// fold in so any header divergence flips the value.
func flitKey(f *Flit) uint64 {
	k := f.ID*0x9e3779b97f4a7c15 ^ f.PacketID<<32
	k ^= uint64(f.Type)<<60 | uint64(f.VC)<<52 | uint64(uint32(f.Seq))<<20
	k ^= uint64(uint16(f.Src))<<4 | uint64(uint16(f.Dst))<<10
	if f.Corrupt {
		k ^= 1
	}
	return k
}

func jobKey(j *packetJob) uint64 {
	k := j.id*0x9e3779b97f4a7c15 ^ uint64(uint16(j.src))<<48 ^ uint64(uint16(j.dst))<<32
	k ^= uint64(uint32(j.flits))<<16 ^ uint64(j.injectCycle) ^ uint64(j.gap)<<24
	k ^= uint64(uint32(j.retries))<<56 ^ uint64(j.notBefore)<<8
	return k
}

// visitState emits every architectural state value once, in a fixed
// deterministic order. router is -1 for network-global state; a and b
// are field-specific sub-indices (port, VC, slot, ...).
func (n *Network) visitState(emit func(f stateField, router, a, b int, v uint64)) {
	emit(fCycle, -1, 0, 0, uint64(n.cycle))
	emit(fOutstanding, -1, 0, 0, uint64(int64(n.outstanding)))
	emit(fBufferedFlits, -1, 0, 0, uint64(int64(n.bufferedFlits)))
	emit(fNextFlitID, -1, 0, 0, n.nextFlitID)
	emit(fNextPacketID, -1, 0, 0, n.nextPacketID)
	emit(fLastProgress, -1, 0, 0, uint64(n.lastProgress))
	emit(fFlitsDelivered, -1, 0, 0, n.flitsDelivered)
	emit(fPktsDelivered, -1, 0, 0, n.pktsDelivered)
	emit(fPktsFailed, -1, 0, 0, n.pktsFailed)
	emit(fHopRetransmits, -1, 0, 0, n.hopRetransmits)
	emit(fE2ERetransmits, -1, 0, 0, n.e2eRetransmits)
	emit(fCodecDisagree, -1, 0, 0, n.codecDisagree)
	emit(fOrderViolations, -1, 0, 0, n.orderViolations)
	emit(fControlFaults, -1, 0, 0, n.controlFaults)
	emit(fGatedCycles, -1, 0, 0, n.gatedCycles)
	emit(fNGated, -1, 0, 0, uint64(int64(n.nGated)))
	for i, c := range n.errHist {
		emit(fErrHist, -1, i, 0, c)
	}
	for i, c := range n.modeBreakdown {
		emit(fModeBreakdown, -1, i, 0, c)
	}
	emit(fTempSum, -1, 0, 0, u64f(n.tempSum))
	emit(fTempSamples, -1, 0, 0, n.tempSamples)
	emit(fLatencySummary, -1, 0, 0, n.latency.Count)
	emit(fLatencySummary, -1, 1, 0, u64f(n.latency.Sum))
	emit(fLatencySummary, -1, 2, 0, u64f(n.latency.Min))
	emit(fLatencySummary, -1, 3, 0, u64f(n.latency.Max))
	n.latency.VisitCounts(func(i int, c uint64) {
		if c != 0 {
			emit(fLatencyBucket, -1, i, 0, c)
		}
	})

	// Live packet-delivery progress (includes e2e-retransmission state).
	for id := n.packets.base; id < n.packets.base+uint64(len(n.packets.entries)); id++ {
		pi := n.packets.get(id)
		if pi == nil {
			continue
		}
		emit(fPktFlitsArrived, -1, int(id), 0, uint64(int64(pi.flitsArrived)))
		emit(fPktCorrupt, -1, int(id), 0, u64b(pi.corrupt))
		emit(fPktPathLen, -1, int(id), 0, uint64(len(pi.path)))
		for h, rid := range pi.path {
			emit(fPktPathHop, -1, int(id), h, uint64(rid))
		}
		emit(fJob, -1, int(id), 0, jobKey(pi.job))
	}

	for id, q := range n.nics {
		emit(fNICQueueLen, id, 0, 0, uint64(q.queued()))
		for i, j := range q.queue[q.head:] {
			emit(fNICQueueJob, id, i, 0, jobKey(j))
		}
		cur := uint64(0)
		if q.cur != nil {
			cur = 1 + q.cur.id
		}
		emit(fNICCur, id, 0, 0, cur)
		emit(fNICCurVC, id, 0, 0, uint64(int64(q.curVC)))
		emit(fNICNextIdx, id, 0, 0, uint64(int64(q.nextIdx)))
		emit(fNICVCRR, id, 0, 0, uint64(int64(q.vcRR)))
		emit(fNICOutstanding, id, 0, 0, uint64(int64(q.outstanding)))
		emit(fNICLastInject, id, 0, 0, uint64(q.lastInject))
		emit(fNICLastTrace, id, 0, 0, uint64(q.lastTraceTime))
		emit(fNICSeenAny, id, 0, 0, u64b(q.seenAny))
	}

	for id, r := range n.routers {
		emit(fRMode, id, 0, 0, uint64(r.mode))
		emit(fRGated, id, 0, 0, u64b(n.rGated[id]))
		emit(fRWaking, id, 0, 0, uint64(int64(n.rWaking[id])))
		// Only an idle CP router's gating deadline is architectural: a
		// busy one's is dropped or re-armed before it can matter, and
		// which of the two it holds depends on the same-cycle order of
		// link pushes, which differs between shard counts.
		if n.cpGate && n.active(id) && n.idle(id) {
			emit(fRGateAt, id, 0, 0, uint64(n.gateAt[id]))
		}
		emit(fRBypassRR, id, 0, 0, uint64(int64(r.bypassRR)))
		emit(fRBufCount, id, 0, 0, uint64(int64(n.rBufCount[id])))
		emit(fRStaticCycles, id, 0, 0, n.staticSpan(id))
		emit(fRLastScheme, id, 0, 0, uint64(r.lastScheme))
		emit(fRLastGated, id, 0, 0, u64b(r.lastGated))
		emit(fRWinEjectLat, id, 0, 0, r.winEjectLatency.Count)
		emit(fRWinEjectLat, id, 1, 0, u64f(r.winEjectLatency.Sum))
		emit(fRWinEnergyStart, id, 0, 0, u64f(r.winEnergyStart))
		emit(fRLastAvgLatency, id, 0, 0, u64f(r.lastAvgLatency))
		for i, c := range r.winErrHist {
			emit(fRWinErrHist, id, i, 0, c)
		}
		emit(fRWinHopRetrans, id, 0, 0, r.winHopRetrans)
		for p := 0; p < NumPorts; p++ {
			if ip := r.in[p]; ip != nil {
				emit(fInWinFlitsIn, id, p, 0, ip.winFlitsIn)
				emit(fInWinOccupancy, id, p, 0, n.runningWinOcc(id*NumPorts+p))
				for v := 0; v < n.cfg.VCs; v++ {
					i := n.vcIndex(id, p, v)
					ivc := &n.ivcs[i]
					emit(fVCRoute, id, p, v, uint64(int64(ivc.route)))
					emit(fVCClass, id, p, v, uint64(int64(ivc.vcClass)))
					emit(fVCOutVC, id, p, v, uint64(int64(ivc.outVC)))
					emit(fVCRoutedAt, id, p, v, uint64(ivc.routedAt))
					emit(fVCVaAt, id, p, v, uint64(ivc.vaAt))
					emit(fVCBufLen, id, p, v, uint64(ivc.n))
					for k := 0; k < int(ivc.n); k++ {
						emit(fVCBufFlit, id, p*maxVCs+v, k, flitKey(n.vcAt(i, k)))
					}
				}
				if ip.ch != nil {
					emit(fChanLen, id, p, 0, uint64(ip.ch.len()))
					for i := 0; i < ip.ch.len(); i++ {
						cf := ip.ch.at(i)
						emit(fChanReadyAt, id, p, i, uint64(cf.readyAt))
						emit(fChanFlit, id, p, i, flitKey(cf.flit))
						emit(fChanVC, id, p, i, uint64(int64(cf.vc)))
					}
				}
			}
			if op := r.out[p]; op != nil {
				for v := 0; v < n.cfg.VCs; v++ {
					i := n.vcIndex(id, p, v)
					emit(fOutCredit, id, p, v, uint64(int64(n.credits[i])))
					emit(fOutVCBusy, id, p, v, u64b(n.vcBusy[i]))
					emit(fOutShare, id, p, v, uint64(int64(n.share[i])))
					emit(fOutWinVCFlits, id, p, v, n.winVCFlits[i])
				}
				emit(fOutSaRR, id, p, 0, uint64(int64(op.saRR)))
				emit(fOutVaRR, id, p, 0, uint64(int64(op.vaRR)))
				emit(fOutWinFlitsOut, id, p, 0, op.winFlitsOut)
			}
		}
		emit(fGridTemp, id, 0, 0, u64f(n.grid.Temp(id)))
		emit(fWear, id, 0, 0, u64f(n.wear[id].NBTIEffSeconds))
		emit(fWear, id, 1, 0, u64f(n.wear[id].HCIEffSeconds))
		emit(fWear, id, 2, 0, u64f(n.wear[id].ElapsedSeconds))
		emit(fMeterStatic, id, 0, 0, u64f(n.meters[id].StaticJoules))
		emit(fMeterDynamic, id, 0, 0, u64f(n.meters[id].DynamicJoules))
		ev := &n.meters[id].Events
		for i, c := range [...]uint64{
			ev.BufWrites, ev.BufReads, ev.XbarTraverses, ev.LinkHops,
			ev.ChanStages, ev.CRCChecks, ev.SECDEDEncodes, ev.SECDEDDecodes,
			ev.DECTEDEncodes, ev.DECTEDDecodes, ev.RLSteps, ev.Wakeups,
		} {
			emit(fMeterEvents, id, i, 0, c)
		}
		emit(fLastTJ, id, 0, 0, u64f(n.lastTJ[id]))
		emit(fThermAct, id, 0, 0, n.thermAct[id])
	}
}

// Fingerprint hashes the visited state into one FNV-1a word. Two
// networks built from equivalent configurations must report equal
// fingerprints at every matching cycle; internal/diffcheck steps pairs
// in lockstep and compares this value as its cheap divergence probe.
func (n *Network) Fingerprint() uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	n.visitState(func(f stateField, router, a, b int, v uint64) {
		mix(uint64(f) | uint64(uint32(router))<<8)
		mix(uint64(uint32(a)) | uint64(uint32(b))<<32)
		mix(v)
	})
	return h
}

// StateRecord is one named state value from StateRecords.
type StateRecord struct {
	Router int // -1 for network-global state
	Field  string
	Value  uint64
}

// StateRecords materializes the visited state with human-readable field
// names, in the same fixed order as Fingerprint consumes it. Two
// equivalent networks at the same cycle produce records that align
// index-by-index, so the first mismatching entry localizes a divergence
// to a router and field.
func (n *Network) StateRecords() []StateRecord {
	var out []StateRecord
	n.visitState(func(f stateField, router, a, b int, v uint64) {
		name := f.String()
		if a != 0 || b != 0 {
			name = fmt.Sprintf("%s[%d][%d]", name, a, b)
		}
		out = append(out, StateRecord{Router: router, Field: name, Value: v})
	})
	return out
}

// StepUntil advances the network cycle by cycle to exactly the target
// cycle, bounding any idle fast-forward jump so it cannot overshoot.
// It is the lockstep primitive for differential checking: one network
// Steps freely (possibly jumping) and its partner is StepUntil'd to the
// same cycle before their fingerprints are compared.
func (n *Network) StepUntil(target int64) {
	for n.cycle < target {
		n.step(target)
	}
}
