package noc

import (
	"testing"

	"intellinoc/internal/traffic"
)

// denseTrace builds a per-source back-to-back trace: every node sends
// `per` packets with zero compute gap, so execution time is limited purely
// by network round-trips under a dependency window.
func denseTrace(width, height, per int) traffic.Generator {
	nodes := width * height
	var pkts []traffic.Packet
	for i := 0; i < per; i++ {
		for src := 0; src < nodes; src++ {
			pkts = append(pkts, traffic.Packet{
				Time: 0, Src: src, Dst: (src + nodes/2) % nodes, Flits: 4,
			})
		}
	}
	return traffic.NewSliceGenerator(pkts)
}

func TestDependencyWindowThrottlesInjection(t *testing.T) {
	cfg := testConfig()
	cfg.DependencyWindow = 1
	n, err := New(cfg, denseTrace(4, 4, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.RunUntilDrained(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.PacketsDelivered != 800 {
		t.Fatalf("delivered %d/800", res.PacketsDelivered)
	}
	// With W=1, each source serializes 50 round trips: execution time
	// must be at least 50 × the per-packet latency floor (~12 cycles
	// for a 2-hop, 4-flit packet).
	if res.Cycles < 50*12 {
		t.Fatalf("execution time %d too short for serialized round trips", res.Cycles)
	}
	// Open-loop replay of the same trace floods the network up front
	// and drains much faster in wall-clock cycles.
	open := cfg
	open.DependencyWindow = 0
	n2, err := New(open, denseTrace(4, 4, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := n2.RunUntilDrained(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cycles >= res.Cycles {
		t.Fatalf("open loop (%d cycles) should drain faster than W=1 (%d cycles)",
			res2.Cycles, res.Cycles)
	}
}

func TestDependencyWindowExecutionTracksNetworkSpeed(t *testing.T) {
	// A slower router pipeline must stretch closed-loop execution time:
	// the property that gives Fig. 9 its meaning.
	fast := testConfig()
	fast.DependencyWindow = 1
	fast.HasVAStage = false // 3-stage router
	fast.ChannelStages = 16
	fast.DynamicChannelAlloc = true
	fast.BufDepth = 1

	slow := testConfig()
	slow.DependencyWindow = 1 // 4-stage router with per-hop DECTED latency

	nFast, err := New(fast, denseTrace(4, 4, 40), nil)
	if err != nil {
		t.Fatal(err)
	}
	resFast, err := nFast.RunUntilDrained(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	nSlow, err := New(slow, denseTrace(4, 4, 40), StaticController(ModeDECTED))
	if err != nil {
		t.Fatal(err)
	}
	resSlow, err := nSlow.RunUntilDrained(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if resFast.Cycles >= resSlow.Cycles {
		t.Fatalf("faster network must finish sooner: %d vs %d cycles",
			resFast.Cycles, resSlow.Cycles)
	}
}

func TestDependencyWindowPreservesComputeGaps(t *testing.T) {
	// One source, two packets 500 cycles apart: the second cannot start
	// before lastInject+gap even though the first completed long ago.
	cfg := testConfig()
	cfg.DependencyWindow = 2
	pkts := []traffic.Packet{
		{Time: 0, Src: 0, Dst: 5, Flits: 1},
		{Time: 500, Src: 0, Dst: 5, Flits: 1},
	}
	n, err := New(cfg, traffic.NewSliceGenerator(pkts), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.RunUntilDrained(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsDelivered != 2 {
		t.Fatal("packets lost")
	}
	// The run must span at least the 500-cycle compute gap.
	if res.Cycles < 500 {
		t.Fatalf("compute gap not preserved: run took %d cycles", res.Cycles)
	}
}

func TestDependencyWindowWithRetransmissions(t *testing.T) {
	// End-to-end retries must not wedge a W=1 closed loop. A retry keeps
	// its record and goes ahead of the waiting packets, so the live
	// records stay within nodes × window plus the pending retries, and
	// the record audit holds throughout.
	cfg := channelConfig()
	cfg.DependencyWindow = 1
	cfg.ForcedErrorRate = 3e-4
	n, err := New(cfg, uniformGen(t, cfg, 0.1, 1200), StaticController(ModeCRC))
	if err != nil {
		t.Fatal(err)
	}
	pending := 0
	for i := 0; !n.Drained() && n.Cycle() < 1_000_000; i++ {
		n.Step()
		retries := 0
		for _, q := range n.nics {
			retries += len(q.retry)
		}
		pending = max(pending, retries)
		if live, limit := n.liveRecs(), len(n.nics)*cfg.DependencyWindow+retries; live > limit {
			t.Fatalf("cycle %d: %d live packet records, above %d", n.Cycle(), live, limit)
		}
		if i%97 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", n.Cycle(), err)
			}
		}
	}
	if !n.Drained() {
		t.Fatal("run did not drain")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	res := n.Snapshot()
	if res.E2ERetransmits == 0 || pending == 0 {
		t.Fatal("expected pending end-to-end retransmissions at this error rate")
	}
	if res.PacketsDelivered+res.PacketsFailed != 1200 {
		t.Fatalf("lost packets: %+v", res)
	}
}

func TestDependencyWindowWithBypass(t *testing.T) {
	cfg := channelConfig()
	cfg.DependencyWindow = 2
	cfg.PowerGating = true
	cfg.Bypass = true
	cfg.WakeupCycles = 8
	res := runAndCheck(t, cfg, uniformGen(t, cfg, 0.05, 1000), StaticController(ModeBypass))
	if res.PacketsDelivered != 1000 {
		t.Fatalf("delivered %d/1000", res.PacketsDelivered)
	}
	if res.GatedCycles == 0 {
		t.Fatal("bypass policy should gate")
	}
}

// windowRecorder keeps every observation it is shown. It cycles each
// router through modes, one step per window and offset by the router id,
// so a bypass design has routers gating, waking and buffering side by
// side.
type windowRecorder struct {
	modes  []Mode
	window int64
	obs    []Observation
}

func (c *windowRecorder) NextMode(o Observation) Mode {
	c.obs = append(c.obs, o)
	return c.modes[(int(o.Cycle/c.window)+o.Router)%len(c.modes)]
}

// TestWindowObservationsMatchPerCycleSums checks the banked window and
// gated-cycle counters against sums taken cycle by cycle from outside the
// tick: after every Step the test adds each input port's buffer occupancy
// and the gated-router count, weighted by the cycles the Step advanced
// (fast-forwards included, whose spans leave both unchanged). Every
// window observation's occupancy feature and the run's GatedCycles must
// match those sums exactly, under closed-loop Parsec traffic on the
// baseline, CP-gated and bypass designs.
func TestWindowObservationsMatchPerCycleSums(t *testing.T) {
	cases := []struct {
		name  string
		modes []Mode
		mut   func(*Config)
	}{
		{"baseline", []Mode{ModeSECDED}, func(*Config) {}},
		{"cp-gated", []Mode{ModeSECDED}, func(cfg *Config) {
			cfg.PowerGating = true
			cfg.IdleGateCycles = 24
		}},
		{"bypass", []Mode{ModeBypass, ModeSECDED}, func(cfg *Config) {
			cfg.BufDepth = 2
			cfg.ChannelStages = 8
			cfg.DynamicChannelAlloc = true
			cfg.MFAC = true
			cfg.PowerGating = true
			cfg.Bypass = true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.DependencyWindow = 1
			cfg.TimeStepCycles = 200
			tc.mut(&cfg)
			gen, err := traffic.NewParsec("canneal", cfg.Width, cfg.Height, 1500, 3)
			if err != nil {
				t.Fatal(err)
			}
			rec := &windowRecorder{modes: tc.modes, window: int64(cfg.TimeStepCycles)}
			n, err := New(cfg, gen, rec)
			if err != nil {
				t.Fatal(err)
			}
			n.SetInitialMode(tc.modes[0])
			win := float64(cfg.TimeStepCycles)
			capacity := float64(cfg.VCs * cfg.BufDepth)
			sums := make([]uint64, len(n.routers)*NumPorts)
			var gated, occupied uint64
			for !n.Drained() && n.Cycle() < 2_000_000 {
				before, seen := n.Cycle(), len(rec.obs)
				n.Step()
				d := uint64(n.Cycle() - before)
				for k := range sums {
					occ := uint64(n.portOccupancy(k/NumPorts, k%NumPorts)) * d
					sums[k] += occ
					occupied += occ
				}
				for _, g := range n.rGated {
					if g {
						gated += d
					}
				}
				if got := n.Snapshot().GatedCycles; got != gated {
					t.Fatalf("cycle %d: GatedCycles = %d, per-cycle sum %d", n.Cycle(), got, gated)
				}
				if len(rec.obs) == seen {
					continue
				}
				for _, o := range rec.obs[seen:] {
					for p := 0; p < NumPorts; p++ {
						if n.routers[o.Router].in[p] == nil {
							continue
						}
						want := float64(sums[o.Router*NumPorts+p]) / win / capacity
						if got := o.Features[5+p]; got != want {
							t.Fatalf("cycle %d router %d %s: occupancy feature %v, per-cycle sum gives %v",
								o.Cycle, o.Router, PortName(p), got, want)
						}
					}
				}
				clear(sums)
			}
			if !n.Drained() {
				t.Fatal("run did not drain")
			}
			if len(rec.obs) == 0 || occupied == 0 {
				t.Fatalf("%d observations over %d flit-cycles of occupancy: the check compared nothing", len(rec.obs), occupied)
			}
			if cfg.PowerGating && gated == 0 {
				t.Fatal("no router gated: the gated-cycle check compared nothing")
			}
		})
	}
}

// TestClosedLoopRecordsBounded checks that a closed loop keeps packet
// records only for the packets it has started. Under an 8×8 canneal trace
// with one packet outstanding per core, the trace issues packets faster
// than the loop retires them, so the NICs back up a waiting queue that
// grows with the trace. At every step the live records must stay within
// nodes × window plus the pending end-to-end retries, and a run four
// times as long must make under 1.5 times the heap allocations. Waiting
// packets are still state: two networks that differ only in one waiting
// packet's compute gap must have different fingerprints.
func TestClosedLoopRecordsBounded(t *testing.T) {
	cfg := testConfig()
	cfg.Width, cfg.Height = 8, 8
	cfg.DependencyWindow = 1
	canneal := func(packets int) *Network {
		gen, err := traffic.NewParsec("canneal", cfg.Width, cfg.Height, packets, 1)
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(cfg, gen, nil)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	var res Result
	var backlog int
	run := func(n *Network) {
		backlog = 0
		for !n.Drained() && n.Cycle() < 10_000_000 {
			n.Step()
			retries, waiting := 0, 0
			for _, q := range n.nics {
				retries += len(q.retry)
				waiting += q.queued()
			}
			if live, limit := n.liveRecs(), len(n.nics)*n.cfg.DependencyWindow+retries; live > limit {
				t.Fatalf("cycle %d: %d live packet records, above %d (%d waiting)", n.Cycle(), live, limit, waiting)
			}
			backlog = max(backlog, waiting)
		}
		res = n.Snapshot()
	}
	allocs := func(packets int) float64 {
		return testing.AllocsPerRun(1, func() { run(canneal(packets)) })
	}
	short := allocs(8000)
	if res.PacketsDelivered != 8000 {
		t.Fatalf("8000-packet run delivered %d", res.PacketsDelivered)
	}
	long := allocs(32000)
	if res.PacketsDelivered != 32000 {
		t.Fatalf("32000-packet run delivered %d", res.PacketsDelivered)
	}
	if backlog < 10*cfg.Width*cfg.Height {
		t.Fatalf("peak backlog %d packets: the trace does not outrun the loop, so the bound shows nothing", backlog)
	}
	t.Logf("allocations: %.0f (8000 packets), %.0f (32000); peak backlog %d; %d cycles", short, long, backlog, res.Cycles)
	if long >= 1.5*short {
		t.Fatalf("a 32000-packet run made %.0f allocations, a 8000-packet one %.0f: records grow with the trace", long, short)
	}

	a, b := canneal(8000), canneal(8000)
	for i := 0; i < 500; i++ {
		a.Step()
		b.Step()
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("two identical networks differ in fingerprint")
	}
	q := b.nics[0]
	if q.queued() == 0 {
		t.Fatal("NIC 0 has no waiting packet to perturb")
	}
	q.wait[q.head].gap++
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("a waiting packet's compute gap is invisible to the fingerprint")
	}
}
