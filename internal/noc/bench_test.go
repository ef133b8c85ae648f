package noc

import (
	"fmt"
	"runtime"
	"testing"

	"intellinoc/internal/traffic"
)

// BenchmarkNetworkCycle measures the raw simulation rate of an 8×8
// baseline mesh under moderate load, in simulated cycles per second.
func BenchmarkNetworkCycle(b *testing.B) {
	cfg := testConfig()
	cfg.Width, cfg.Height = 8, 8
	gen, err := traffic.NewSynthetic(traffic.SyntheticConfig{
		Width: 8, Height: 8, Pattern: traffic.Uniform,
		InjectionRate: 0.1, PacketFlits: 4, Packets: 1 << 30, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	n, err := New(cfg, gen, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := n.Cycle()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
	b.StopTimer()
	// Step may fast-forward several cycles when the mesh is quiescent, so
	// the rate is measured in simulated cycles, not Step calls.
	b.ReportMetric(float64(n.Cycle()-start)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkNetworkCycleChannelBuffered measures the MFAC-style
// configuration, whose dynamic channel scan is the pricier path.
func BenchmarkNetworkCycleChannelBuffered(b *testing.B) {
	cfg := channelConfig()
	cfg.Width, cfg.Height = 8, 8
	cfg.BaseErrorRate = 2e-5
	gen, err := traffic.NewSynthetic(traffic.SyntheticConfig{
		Width: 8, Height: 8, Pattern: traffic.Uniform,
		InjectionRate: 0.1, PacketFlits: 4, Packets: 1 << 30, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	n, err := New(cfg, gen, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := n.Cycle()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(n.Cycle()-start)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkNetworkCycleClosedLoop measures the paper's Table 1 regime:
// an 8×8 baseline mesh under the PARSEC canneal model, closed loop with
// one packet outstanding per core. The trace issues packets several times
// faster than one-outstanding round trips retire them, so a run spends
// most of its cycles draining the backlog: most NICs hold a packet that
// waits on its dependency window and most routers are idle on any given
// cycle. That prices the per-router and per-NIC scans of the tick rather
// than the per-flit pipeline. The warmup admits the whole trace — sized
// so the backlog outlasts the timed steps — so the timed span is that
// drain, in steady state.
func BenchmarkNetworkCycleClosedLoop(b *testing.B) {
	cfg := testConfig()
	cfg.Width, cfg.Height = 8, 8
	cfg.DependencyWindow = 1
	gen, err := traffic.NewParsec("canneal", 8, 8, 3*b.N+4000, 1)
	if err != nil {
		b.Fatal(err)
	}
	n, err := New(cfg, gen, nil)
	if err != nil {
		b.Fatal(err)
	}
	for !n.gen.Exhausted() {
		n.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := n.Cycle()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
	b.StopTimer()
	if n.Drained() {
		b.Fatal("the backlog drained before the timed steps ended")
	}
	b.ReportMetric(float64(n.Cycle()-start)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkNetworkCyclePowerManaged measures the closed-loop canneal drain
// of BenchmarkNetworkCycleClosedLoop on the two power-managed router
// designs: /cp gates idle routers after IdleGateCycles (the CP baseline),
// /bypass keeps every router in mode 0, so a drained router gates at once
// and forwards through its bypass switch. With most NICs holding a packet
// that waits on its dependency window, this prices the power phase's
// deadline scan and the bypass switch's due-port skip. The bypass design
// retires the backlog about 1.6 times as fast as CP (measured at about
// 2.9 against 1.85 packets a cycle), so its trace is longer per timed
// step.
func BenchmarkNetworkCyclePowerManaged(b *testing.B) {
	for _, tc := range []struct {
		name         string
		bypass       bool
		ctrl         Controller
		packetsPerOp int
	}{
		{"cp", false, nil, 3},
		{"bypass", true, StaticController(ModeBypass), 8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := channelConfig() // 2RB-4VC-8CB storage, as on CP and IntelliNoC
			cfg.Width, cfg.Height = 8, 8
			cfg.VCs = 4
			cfg.DependencyWindow = 1
			cfg.PowerGating = true
			cfg.Bypass = tc.bypass
			gen, err := traffic.NewParsec("canneal", 8, 8, tc.packetsPerOp*b.N+4000, 1)
			if err != nil {
				b.Fatal(err)
			}
			n, err := New(cfg, gen, tc.ctrl)
			if err != nil {
				b.Fatal(err)
			}
			for !n.gen.Exhausted() {
				n.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := n.Cycle()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
			b.StopTimer()
			if n.Drained() {
				b.Fatal("the backlog drained before the timed steps ended")
			}
			if tc.bypass && n.gatedCycles == 0 {
				b.Fatal("no router gated: the bypass switch went unmeasured")
			}
			b.ReportMetric(float64(n.Cycle()-start)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// BenchmarkNetworkCycleSharded measures the worker-pool stepper across
// mesh sizes and shard counts — the shard-scaling curve. Both custom
// metrics are cycle-deltas, not per-Step-call figures (Step fast-forwards
// quiescent stretches, so op counts undercount simulated time): cycles/s
// is the simulation rate and allocs/cycle the steady-state heap traffic,
// which the CI scaling gate requires to be zero. A warmup phase fills the
// flit/job pools before the timer starts so the measurement is steady
// state, and /shards1 (one shard, no worker goroutines) is the baseline
// the multi-shard variants are gated against (>=2.5x at shards=8 on
// 32x32 on a 4-vCPU runner).
func BenchmarkNetworkCycleSharded(b *testing.B) {
	for _, mesh := range []int{16, 32, 64} {
		mesh := mesh
		b.Run(fmt.Sprintf("mesh%dx%d", mesh, mesh), func(b *testing.B) {
			for _, shards := range []int{1, 2, 4, 8, 16} {
				b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
					cfg := testConfig()
					cfg.Width, cfg.Height = mesh, mesh
					cfg.Shards = shards
					// Uniform traffic saturates a k-wide mesh near 4/k
					// flits/node/cycle (bisection bound); inject at ~40%
					// of that so queues — and the pools behind them —
					// reach a true steady state instead of growing for
					// the whole measurement.
					gen, err := traffic.NewSynthetic(traffic.SyntheticConfig{
						Width: mesh, Height: mesh, Pattern: traffic.Uniform,
						InjectionRate: 1.6 / float64(mesh), PacketFlits: 4, Packets: 1 << 30, Seed: 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					n, err := New(cfg, gen, nil)
					if err != nil {
						b.Fatal(err)
					}
					defer n.Close()
					for i := 0; i < 2000; i++ {
						n.Step() // warm the pools and park/unpark machinery
					}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					b.ReportAllocs()
					b.ResetTimer()
					start := n.Cycle()
					for i := 0; i < b.N; i++ {
						n.Step()
					}
					b.StopTimer()
					runtime.ReadMemStats(&after)
					cycles := float64(n.Cycle() - start)
					b.ReportMetric(cycles/b.Elapsed().Seconds(), "cycles/s")
					b.ReportMetric(float64(after.Mallocs-before.Mallocs)/cycles, "allocs/cycle")
				})
			}
		})
	}
}
