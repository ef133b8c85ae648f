package power

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"intellinoc/internal/ecc"
)

// chainMeter is the oracle for the typed recorders: the meter as it was
// when every event went through one Record(EventCounts) call that summed
// all twelve count×energy terms in field order before a single +=.
type chainMeter struct {
	p             Params
	eBufWrite     float64
	eBufRead      float64
	eChanStage    float64
	DynamicJoules float64
	Events        EventCounts
}

func newChainMeter(p Params, cfg RouterConfig) *chainMeter {
	m := &chainMeter{p: p}
	m.eBufWrite = p.BufWriteEnergy(cfg.SlotsPerVC)
	m.eBufRead = p.BufReadEnergy(cfg.SlotsPerVC)
	m.eChanStage = p.EChanStage
	if cfg.ElasticChannel {
		m.eChanStage *= 2.5
	}
	return m
}

func (m *chainMeter) record(c EventCounts) {
	e := &m.Events
	e.BufWrites += c.BufWrites
	e.BufReads += c.BufReads
	e.XbarTraverses += c.XbarTraverses
	e.LinkHops += c.LinkHops
	e.ChanStages += c.ChanStages
	e.CRCChecks += c.CRCChecks
	e.SECDEDEncodes += c.SECDEDEncodes
	e.SECDEDDecodes += c.SECDEDDecodes
	e.DECTEDEncodes += c.DECTEDEncodes
	e.DECTEDDecodes += c.DECTEDDecodes
	e.RLSteps += c.RLSteps
	e.Wakeups += c.Wakeups
	p := &m.p
	m.DynamicJoules += float64(c.BufWrites)*m.eBufWrite +
		float64(c.BufReads)*m.eBufRead +
		float64(c.XbarTraverses)*p.EXbar +
		float64(c.LinkHops)*p.ELinkHop +
		float64(c.ChanStages)*m.eChanStage +
		float64(c.CRCChecks)*p.ECRCCheck +
		float64(c.SECDEDEncodes)*p.ESECDEDEnc +
		float64(c.SECDEDDecodes)*p.ESECDEDDec +
		float64(c.DECTEDEncodes)*p.EDECTEDEnc +
		float64(c.DECTEDDecodes)*p.EDECTEDDec +
		float64(c.RLSteps)*p.ERLStep +
		float64(c.Wakeups)*p.EWakeup
}

// linkEvents is the EventCounts the simulator used to build for one
// link traversal with hops-1 hop-level retransmissions.
func linkEvents(hops, stages uint64, scheme ecc.Scheme) EventCounts {
	ev := EventCounts{LinkHops: hops, ChanStages: hops * stages}
	switch scheme {
	case ecc.SchemeSECDED:
		ev.SECDEDEncodes, ev.SECDEDDecodes = hops, hops
	case ecc.SchemeDECTED:
		ev.DECTEDEncodes, ev.DECTEDDecodes = hops, hops
	}
	return ev
}

// TestRecordersMatchEventChain drives a recorder meter and the chain
// oracle through the same random event sequence and requires the same
// DynamicJoules bits and the same counters after every event.
func TestRecordersMatchEventChain(t *testing.T) {
	schemes := []ecc.Scheme{ecc.SchemeNone, ecc.SchemeCRC, ecc.SchemeSECDED, ecc.SchemeDECTED}
	p := DefaultParams()
	for _, slots := range []int{2, 4, 8} {
		for _, elastic := range []bool{false, true} {
			cfg := RouterConfig{BufferSlots: 5 * 4 * slots, SlotsPerVC: slots, ChannelStages: 40, ElasticChannel: elastic}
			rng := rand.New(rand.NewSource(int64(slots)*2 + 1))
			got, want := NewMeter(p, cfg), newChainMeter(p, cfg)
			for i := 0; i < 20000; i++ {
				// Restart from zero joules now and then, so the check
				// sees an event's own energy bits and not only their
				// rounding into a large running total.
				if rng.Intn(2) == 0 {
					got.DynamicJoules, want.DynamicJoules = 0, 0
				}
				switch rng.Intn(6) {
				case 0:
					got.BufWrite()
					want.record(EventCounts{BufWrites: 1})
				case 1:
					got.Switch()
					want.record(EventCounts{BufReads: 1, XbarTraverses: 1})
				case 2:
					// Hop-level retransmission makes up to 8 extra
					// attempts; weight the common single hop.
					hops := uint64(1)
					if rng.Intn(4) == 0 {
						hops += uint64(rng.Intn(9))
					}
					stages := uint64([]int{0, 1, 4, 8}[rng.Intn(4)])
					scheme := schemes[rng.Intn(len(schemes))]
					got.Link(hops, stages, scheme)
					want.record(linkEvents(hops, stages, scheme))
				case 3:
					got.CRC()
					want.record(EventCounts{CRCChecks: 1})
				case 4:
					got.Wakeup()
					want.record(EventCounts{Wakeups: 1})
				case 5:
					got.RLStep()
					want.record(EventCounts{RLSteps: 1})
				}
				if math.Float64bits(got.DynamicJoules) != math.Float64bits(want.DynamicJoules) || got.Events != want.Events {
					t.Fatalf("slots=%d elastic=%v event %d: recorders %x %+v, chain %x %+v",
						slots, elastic, i, math.Float64bits(got.DynamicJoules), got.Events,
						math.Float64bits(want.DynamicJoules), want.Events)
				}
			}
		}
	}
}

// TestDefaultEventEnergiesNonNegative pins the premise of the recorders'
// exactness argument: every per-event energy is finite and >= 0, so a
// zero-count term of the old chain was +0.
func TestDefaultEventEnergiesNonNegative(t *testing.T) {
	p := DefaultParams()
	v := reflect.ValueOf(p)
	checked := 0
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name[0] != 'E' {
			continue // leakage and gating, not per-event energies
		}
		checked++
		e := v.Field(i).Float()
		if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
			t.Errorf("%s = %g, want finite and >= 0", name, e)
		}
	}
	if checked == 0 {
		t.Fatal("no per-event energy fields found")
	}
}
