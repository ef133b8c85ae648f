package noc

import (
	"fmt"
	"testing"

	"intellinoc/internal/traffic"
)

// steadyNetwork builds an 8×8 mesh of cfg's routers under sustained
// uniform load for the steady-state performance tests.
func steadyNetwork(t testing.TB, cfg Config, seed int64) *Network {
	t.Helper()
	cfg.Width, cfg.Height = 8, 8
	gen, err := traffic.NewSynthetic(traffic.SyntheticConfig{
		Width: 8, Height: 8, Pattern: traffic.Uniform,
		InjectionRate: 0.1, PacketFlits: 4, Packets: 1 << 30, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(cfg, gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSteadyStateAllocs pins the flit free-list and packet-table work: once
// the pools are warm, stepping the network must allocate (amortized)
// almost nothing — a regression here means a pooled object leaked back to
// the garbage collector.
//
// The channel-buffered case (BufDepth 2) is the one whose NIC injection
// blocks on a full local VC most often, so it covers the refused-peek path.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"baseline", testConfig()},
		{"channel-buffered", channelConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := steadyNetwork(t, tc.cfg, 1)
			// Warm-up: populate the pools and let every buffer/queue
			// reach its steady-state capacity.
			for i := 0; i < 20_000; i++ {
				n.Step()
			}
			const span = 5000
			before := n.FlitsDelivered()
			allocs := testing.AllocsPerRun(5, func() {
				for i := 0; i < span; i++ {
					n.Step()
				}
			})
			delivered := n.FlitsDelivered() - before
			if delivered == 0 {
				t.Fatal("no traffic delivered during measurement span")
			}
			perCycle := allocs / span
			// The budget is deliberately loose (amortized queue growth,
			// map-free but not literally zero); the pre-pooling
			// simulator spent ~47 allocs per cycle here.
			if perCycle > 0.5 {
				t.Fatalf("steady state allocates %.2f objects/cycle (%.0f over %d cycles); pooling regressed",
					perCycle, allocs, span)
			}
		})
	}
}

// TestSeededDeterminism is the golden reproducibility property: two
// networks built from the same seed must produce byte-identical Results.
func TestSeededDeterminism(t *testing.T) {
	run := func() Result {
		n := steadyNetwork(t, testConfig(), 42)
		for n.Cycle() < 30_000 {
			n.Step()
		}
		return n.Snapshot()
	}
	a, b := run(), run()
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

// TestFastForwardExactness cross-checks the idle fast-forward against
// cycle-by-cycle stepping: a bursty workload with long quiescent gaps must
// produce byte-identical Results either way, across the configurations
// whose power-state machinery the fast-forward has to respect.
func TestFastForwardExactness(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"baseline", func(cfg *Config) {}},
		{"power-gated", func(cfg *Config) {
			cfg.PowerGating = true
			cfg.IdleGateCycles = 30
			cfg.WakeupCycles = 8
		}},
		{"channel-bypass", func(cfg *Config) {
			cfg.ChannelStages = 8
			cfg.DynamicChannelAlloc = true
			cfg.MFAC = true
			cfg.Bypass = true
			cfg.PowerGating = true
			cfg.IdleGateCycles = 30
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(disableFF bool) (Result, int64) {
				cfg := testConfig()
				tc.mut(&cfg)
				cfg.DisableIdleFastForward = disableFF
				// Bursts separated by multi-thousand-cycle idle gaps:
				// exactly the shape the fast-forward accelerates.
				gen, err := traffic.NewSynthetic(traffic.SyntheticConfig{
					Width: 4, Height: 4, Pattern: traffic.Uniform,
					InjectionRate: 0.002, PacketFlits: 4,
					Packets: 120, Seed: 9,
				})
				if err != nil {
					t.Fatal(err)
				}
				n, err := New(cfg, gen, nil)
				if err != nil {
					t.Fatal(err)
				}
				res, err := n.RunUntilDrained(2_000_000)
				if err != nil {
					t.Fatal(err)
				}
				return res, n.Cycle()
			}
			fast, fastCy := run(false)
			slow, slowCy := run(true)
			if fastCy != slowCy {
				t.Fatalf("fast-forward ends at cycle %d, cycle-by-cycle at %d", fastCy, slowCy)
			}
			if fs, ss := fmt.Sprintf("%+v", fast), fmt.Sprintf("%+v", slow); fs != ss {
				t.Fatalf("fast-forward diverges from cycle-by-cycle stepping:\nfast: %s\nslow: %s", fs, ss)
			}
			if err := fastNetworkInvariants(t, tc.mut); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// fastNetworkInvariants re-runs the bursty workload with fast-forward on
// and audits CheckInvariants at every thermal boundary.
func fastNetworkInvariants(t *testing.T, mut func(*Config)) error {
	cfg := testConfig()
	mut(&cfg)
	gen, err := traffic.NewSynthetic(traffic.SyntheticConfig{
		Width: 4, Height: 4, Pattern: traffic.Uniform,
		InjectionRate: 0.002, PacketFlits: 4, Packets: 60, Seed: 11,
	})
	if err != nil {
		return err
	}
	n, err := New(cfg, gen, nil)
	if err != nil {
		return err
	}
	for !n.Drained() && n.Cycle() < 500_000 {
		n.Step()
		if n.Cycle()%int64(cfg.ThermalIntervalCycles) == 0 {
			if err := n.CheckInvariants(); err != nil {
				return fmt.Errorf("cycle %d: %w", n.Cycle(), err)
			}
		}
	}
	return n.CheckInvariants()
}

// TestNewAllocatesPerRouter pins New's memory layout: every per-port and
// per-VC structure is carved from network-wide slabs, so the object count
// does not depend on the VC count, and each router adds a small constant
// (its power meter) on top of the network-wide objects.
func TestNewAllocatesPerRouter(t *testing.T) {
	allocs := func(side, vcs int) float64 {
		cfg := testConfig()
		cfg.Width, cfg.Height = side, side
		cfg.VCs = vcs
		return testing.AllocsPerRun(5, func() {
			if _, err := New(cfg, traffic.NewSliceGenerator(nil), nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	a2, a8 := allocs(8, 2), allocs(8, 8)
	if a2 != a8 {
		t.Fatalf("8x8 New allocates %v objects at 2 VCs but %v at 8: some structure is still per port×VC", a2, a8)
	}
	const perRouter = 2
	small := allocs(4, 2)
	if per := (a2 - small) / (64 - 16); per > perRouter {
		t.Fatalf("New allocates %.2f objects per router (4x4: %v, 8x8: %v), want at most %d", per, small, a2, perRouter)
	}
}
