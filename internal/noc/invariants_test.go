package noc

import (
	"testing"

	"intellinoc/internal/traffic"
)

// runAndCheck drains a workload and then validates every network
// invariant: in-order delivery, credit conservation, released VCs, empty
// buffers/channels/NICs.
func runAndCheck(t *testing.T, cfg Config, gen traffic.Generator, ctrl Controller) Result {
	t.Helper()
	n, err := New(cfg, gen, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.RunUntilDrained(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestInvariantsBaseline(t *testing.T) {
	cfg := testConfig()
	runAndCheck(t, cfg, uniformGen(t, cfg, 0.15, 2500), nil)
}

func TestInvariantsChannelBuffered(t *testing.T) {
	cfg := channelConfig()
	runAndCheck(t, cfg, uniformGen(t, cfg, 0.2, 2500), nil)
}

func TestInvariantsEBStyle(t *testing.T) {
	cfg := testConfig()
	cfg.HasVAStage = false
	cfg.BufDepth = 1
	cfg.VCs = 2
	cfg.ChannelStages = 16
	cfg.DynamicChannelAlloc = true // independent sub-network channels
	runAndCheck(t, cfg, uniformGen(t, cfg, 0.12, 2000), nil)
}

func TestInvariantsUnderErrors(t *testing.T) {
	for _, mode := range []Mode{ModeCRC, ModeSECDED, ModeDECTED, ModeRelaxed} {
		cfg := channelConfig()
		cfg.ForcedErrorRate = 3e-4
		res := runAndCheck(t, cfg, uniformGen(t, cfg, 0.1, 1500), StaticController(mode))
		if res.PacketsDelivered+res.PacketsFailed != 1500 {
			t.Fatalf("%v: lost packets", mode)
		}
	}
}

func TestInvariantsWithPowerGating(t *testing.T) {
	cfg := channelConfig()
	cfg.PowerGating = true
	cfg.IdleGateCycles = 24
	cfg.WakeupCycles = 8
	res := runAndCheck(t, cfg, uniformGen(t, cfg, 0.02, 1200), nil)
	if res.GatedCycles == 0 {
		t.Fatal("expected gating at this load")
	}
}

func TestInvariantsWithBypass(t *testing.T) {
	cfg := channelConfig()
	cfg.PowerGating = true
	cfg.Bypass = true
	cfg.WakeupCycles = 8
	for _, rate := range []float64{0.02, 0.15, 0.4} {
		res := runAndCheck(t, cfg, uniformGen(t, cfg, rate, 1500), StaticController(ModeBypass))
		if res.PacketsDelivered != 1500 {
			t.Fatalf("rate %v: delivered %d/1500", rate, res.PacketsDelivered)
		}
	}
}

// modeFlipController alternates modes every decision to stress the
// transitions (active↔gated, scheme changes) mid-traffic.
type modeFlipController struct{ i int }

func (c *modeFlipController) NextMode(Observation) Mode {
	c.i++
	return Mode(c.i % NumModes)
}

func TestInvariantsUnderModeThrashing(t *testing.T) {
	cfg := channelConfig()
	cfg.PowerGating = true
	cfg.Bypass = true
	cfg.WakeupCycles = 8
	cfg.TimeStepCycles = 200 // flip modes frequently
	cfg.ForcedErrorRate = 1e-4
	res := runAndCheck(t, cfg, uniformGen(t, cfg, 0.1, 2500), &modeFlipController{})
	if res.PacketsDelivered+res.PacketsFailed != 2500 {
		t.Fatalf("lost packets under mode thrashing: %+v", res)
	}
	// All five modes must actually have been exercised.
	for m, cycles := range res.ModeBreakdown {
		if cycles == 0 {
			t.Fatalf("mode %d never exercised", m)
		}
	}
}

func TestInvariantsHotspotTraffic(t *testing.T) {
	cfg := channelConfig()
	cfg.PowerGating = true
	cfg.Bypass = true
	cfg.WakeupCycles = 8
	g, err := traffic.NewSynthetic(traffic.SyntheticConfig{
		Width: 4, Height: 4, Pattern: traffic.Hotspot,
		InjectionRate: 0.2, PacketFlits: 4, Packets: 2000,
		HotspotFraction: 0.5, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	runAndCheck(t, cfg, g, StaticController(ModeBypass))
}

func TestInvariantsParsecAllTechShapes(t *testing.T) {
	// Mixed packet sizes (1- and 4-flit) across all structural shapes.
	shapes := []Config{testConfig(), channelConfig()}
	for i, cfg := range shapes {
		g, err := traffic.NewParsec("dedup", cfg.Width, cfg.Height, 1500, 21)
		if err != nil {
			t.Fatal(err)
		}
		res := runAndCheck(t, cfg, g, nil)
		if res.PacketsDelivered != 1500 {
			t.Fatalf("shape %d: delivered %d/1500", i, res.PacketsDelivered)
		}
	}
}

// TestInvariantsCatchSlabCorruption checks that CheckInvariants audits the
// occupied-VC masks, the earliest-ready slabs, the input-VC records, the
// credit slab and the words that bank per-cycle accounting or skip idle
// routers and NICs mid-run, not only at quiescence: one flipped mask bit,
// one stale slot, one ring out of range, one drifted credit or count, an
// underpaid window counter or a NIC wrongly held back must be reported.
// So must the packet records: a leaked record, a flit naming another
// packet's slot, a flit that found no record, or waiting packets out of
// id order.
func TestInvariantsCatchSlabCorruption(t *testing.T) {
	cfg := channelConfig()
	n, err := New(cfg, uniformGen(t, cfg, 0.3, 5000), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		n.Step()
	}
	if n.bufferedFlits == 0 {
		t.Fatal("network idle mid-run; the check would not cover busy state")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("healthy network: %v", err)
	}

	n.rOccVC[5] ^= 1 << (PortWest*cfg.VCs + 1)
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("a flipped occupied-VC bit went unreported")
	}
	n.rOccVC[5] ^= 1 << (PortWest*cfg.VCs + 1)

	slot := 5*NumPorts + PortWest
	saved := n.inMinReady[slot]
	n.inMinReady[slot] = saved - 1
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("a stale earliest-ready slot went unreported")
	}
	n.inMinReady[slot] = saved

	ivc := &n.ivcs[n.vcIndex(5, PortWest, 1)]
	head := ivc.head
	ivc.head = int32(cfg.BufDepth)
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("a VC ring head outside BufDepth went unreported")
	}
	ivc.head = head
	length := ivc.n
	ivc.n = int32(cfg.BufDepth) + 1
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("a VC holding more than BufDepth flits went unreported")
	}
	ivc.n = length

	credit := n.vcIndex(5, PortEast, 1)
	n.credits[credit]--
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("a leaked credit went unreported mid-run")
	}
	n.credits[credit]++
	sink := n.vcIndex(5, PortLocal, 0)
	n.credits[sink] = 0
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("an ejection sink without the uncredited sentinel went unreported")
	}
	n.credits[sink] = uncredited

	// The words that bank per-cycle accounting and let the tick skip
	// idle routers and NICs.
	savedMin := n.rMinReady[5]
	n.rMinReady[5] = n.cycle + 1000
	if savedMin != noReady {
		n.rMinReady[5] = noReady
	}
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("a stale per-router earliest-ready word went unreported")
	}
	n.rMinReady[5] = savedMin

	n.nGated++
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("a drifted gated-router count went unreported")
	}
	n.nGated--

	k := 0
	for k < len(n.portOcc) && n.portOcc[k] == 0 {
		k++
	}
	if k == len(n.portOcc) {
		t.Fatal("every input port is empty; the prepaid check would not be exercised")
	}
	savedOcc := n.winOcc[k]
	n.winOcc[k] = uint64(n.portOcc[k])*uint64(n.winEnd-n.cycle) - 1
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("a window occupancy prepaid below the current occupancy went unreported")
	}
	n.winOcc[k] = savedOcc

	ready := -1
	for id, q := range n.nics {
		if n.nicWake(q) <= n.cycle {
			ready = id
			break
		}
	}
	if ready < 0 {
		t.Fatal("no NIC could inject; the eligibility check would not be exercised")
	}
	n.nicReady[ready] = noReady
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("a NIC that could inject but holds a future eligibility word went unreported")
	}
	n.nicReady[ready] = n.nicWake(n.nics[ready])

	// The packet records: one per started, unretired packet.
	leak := n.newRec(packetRec{id: n.nextPacketID, flits: 1})
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("a record no packet holds went unreported")
	}
	n.freeRec(leak)

	var f *Flit
	for i := range n.ivcs {
		if n.ivcs[i].n > 0 {
			f = n.vcAt(i, 0)
			break
		}
	}
	other := -1
	for s := range n.recs {
		if n.recs[s].flits > 0 && int32(s) != f.rec {
			other = s
			break
		}
	}
	if other < 0 {
		t.Fatal("one live record only; a flit cannot be pointed at another packet's")
	}
	savedRec := f.rec
	f.rec = int32(other)
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("a flit naming another packet's record went unreported")
	}
	f.rec = savedRec

	n.recordHop(&Flit{PacketID: n.nextPacketID, rec: -1, Type: FlitHead}, 5)
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("a flit that found no record of its packet went unreported")
	}
	n.lostFlits = 0

	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("restored network: %v", err)
	}

	// A closed loop backs packets up at every NIC.
	loop := testConfig()
	loop.DependencyWindow = 1
	n, err = New(loop, denseTrace(loop.Width, loop.Height, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		n.Step()
	}
	q := n.nics[3]
	if q.queued() < 2 {
		t.Fatalf("NIC 3 holds %d waiting packets; the id-order check needs two", q.queued())
	}
	w := q.wait[q.head:]
	w[0], w[1] = w[1], w[0]
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("waiting packets out of id order went unreported")
	}
	w[0], w[1] = w[1], w[0]

	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("restored network: %v", err)
	}
}
