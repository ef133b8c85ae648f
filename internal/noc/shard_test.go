package noc

import (
	"testing"

	"intellinoc/internal/traffic"
)

// shardCases enumerates configurations that exercise every phase of the
// sharded stepper: the plain wormhole baseline, MFAC channel storage,
// CP-style power gating, the bypass route, thermally coupled faults with
// payload verification, and the control-fault path (whose RC-stage PRNG
// draws and delayed routes shift the flit timing the parallel delivery
// and link-drain phases see).
func shardCases() []struct {
	name string
	cfg  Config
	ctrl Controller
	rate float64
} {
	gated := testConfig()
	gated.PowerGating = true

	bypass := channelConfig()
	bypass.PowerGating = true
	bypass.Bypass = true

	faults := channelConfig()
	faults.BaseErrorRate = 1e-4
	faults.VerifyPayloads = true

	ctrlFault := testConfig()
	ctrlFault.ControlFaultRate = 0.01

	noFF := testConfig()
	noFF.PowerGating = true
	noFF.DisableIdleFastForward = true

	return []struct {
		name string
		cfg  Config
		ctrl Controller
		rate float64
	}{
		{"baseline", testConfig(), nil, 0.12},
		{"channels", channelConfig(), nil, 0.12},
		{"gated", gated, nil, 0.03},
		{"bypass", bypass, StaticController(ModeBypass), 0.03},
		{"faults", faults, nil, 0.1},
		{"ctrlfault", ctrlFault, nil, 0.1},
		{"noff", noFF, nil, 0.03},
	}
}

func shardPair(t *testing.T, cfg Config, ctrl Controller, rate float64, shards, packets int) (a, b *Network) {
	t.Helper()
	a, err := New(cfg, uniformGen(t, cfg, rate, packets), ctrl)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.Shards = shards
	b, err = New(scfg, uniformGen(t, scfg, rate, packets), ctrl)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// diffStates reports the first state word on which the two networks
// disagree, so a fingerprint divergence names a router and field.
func diffStates(t *testing.T, a, b *Network) {
	t.Helper()
	ra, rb := a.StateRecords(), b.StateRecords()
	n := len(ra)
	if len(rb) < n {
		n = len(rb)
	}
	for i := 0; i < n; i++ {
		if ra[i] != rb[i] {
			t.Fatalf("cycle %d: first divergence at record %d: seq %+v vs sharded %+v",
				a.Cycle(), i, ra[i], rb[i])
		}
	}
	t.Fatalf("cycle %d: record counts differ: %d vs %d", a.Cycle(), len(ra), len(rb))
}

// TestFingerprintCoversMeterEvents moves one event from one counter to
// another without touching the joules, as a recorder bumping the wrong
// counter would: the fingerprint must change.
func TestFingerprintCoversMeterEvents(t *testing.T) {
	n := steadyNetwork(t, testConfig(), 1)
	for i := 0; i < 500; i++ {
		n.Step()
	}
	base := n.Fingerprint()
	ev := &n.meters[5].Events
	if ev.LinkHops == 0 {
		t.Fatal("router 5 sent no flits")
	}
	ev.LinkHops--
	ev.XbarTraverses++
	if n.Fingerprint() == base {
		t.Fatal("fingerprint ignores the meter event counters")
	}
}

// TestFingerprintCoversVCClassAndChannelVC flips an input VC's dateline
// class and a queued channel entry's recorded VC, as a slab drifting in
// either word would: each must change the fingerprint, and restoring it
// must restore the fingerprint.
func TestFingerprintCoversVCClassAndChannelVC(t *testing.T) {
	n := steadyNetwork(t, testConfig(), 1)
	for i := 0; i < 500; i++ {
		n.Step()
	}
	base := n.Fingerprint()

	ivc := &n.ivcs[n.vcIndex(5, PortWest, 1)]
	ivc.vcClass ^= 1
	if n.Fingerprint() == base {
		t.Fatal("fingerprint ignores inputVC.vcClass")
	}
	ivc.vcClass ^= 1
	if n.Fingerprint() != base {
		t.Fatal("restoring vcClass did not restore the fingerprint")
	}

	for i := range n.chans {
		if n.chans[i].len() == 0 {
			continue
		}
		cf := n.chans[i].at(0)
		cf.vc ^= 1
		if n.Fingerprint() == base {
			t.Fatal("fingerprint ignores the channel entry's recorded VC")
		}
		cf.vc ^= 1
		if n.Fingerprint() != base {
			t.Fatal("restoring the channel entry's VC did not restore the fingerprint")
		}
		return
	}
	t.Fatal("no channel holds a flit mid-run; the test lost its coverage")
}

// TestShardedLockstepFingerprint is the tentpole's bit-identity gate: a
// sequential network and a sharded one built from the same seed must
// agree on every fingerprinted state word at every step boundary, run
// to completion, and report identical Results.
func TestShardedLockstepFingerprint(t *testing.T) {
	for _, tc := range shardCases() {
		t.Run(tc.name, func(t *testing.T) {
			a, b := shardPair(t, tc.cfg, tc.ctrl, tc.rate, 4, 300)
			defer b.Close()
			const maxCycles = 300_000
			for !a.Drained() && a.Cycle() < maxCycles {
				a.Step()
				b.StepUntil(a.Cycle())
				if a.Fingerprint() != b.Fingerprint() {
					diffStates(t, a, b)
				}
			}
			if !a.Drained() {
				t.Fatalf("sequential reference stalled at cycle %d", a.Cycle())
			}
			b.StepUntil(a.Cycle())
			if a.Fingerprint() != b.Fingerprint() {
				diffStates(t, a, b)
			}
			if ra, rb := a.Snapshot(), b.Snapshot(); ra != rb {
				t.Fatalf("Results diverge:\nseq     %+v\nsharded %+v", ra, rb)
			}
		})
	}
}

// TestShardedResultEquality drives full runs (the production entry
// point, fast-forward included) at several shard counts and demands the
// aggregated Result match the sequential run exactly.
func TestShardedResultEquality(t *testing.T) {
	for _, tc := range shardCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref := mustRun(t, tc.cfg, uniformGen(t, tc.cfg, tc.rate, 400), tc.ctrl)
			for _, shards := range []int{2, 4, 7} {
				cfg := tc.cfg
				cfg.Shards = shards
				n, err := New(cfg, uniformGen(t, cfg, tc.rate, 400), tc.ctrl)
				if err != nil {
					t.Fatal(err)
				}
				got, err := n.RunUntilDrained(5_000_000)
				n.Close()
				if err != nil {
					t.Fatal(err)
				}
				if got != ref {
					t.Fatalf("shards=%d Result diverges:\nseq     %+v\nsharded %+v", shards, ref, got)
				}
			}
		})
	}
}

// TestShardedEventOrder locks the hook contract for every shard case: a
// 4-shard run must deliver the exact event sequence of the 1-shard run,
// from a single goroutine (the race detector enforces the latter via the
// unsynchronized append below). The CP-gated cases cover wakes emitted
// both from the power-state phase and from the injection phase.
func TestShardedEventOrder(t *testing.T) {
	collect := func(n *Network) []Event {
		var events []Event
		n.SetEventHook(func(e Event) { events = append(events, e) })
		if _, err := n.RunUntilDrained(5_000_000); err != nil {
			t.Fatal(err)
		}
		return events
	}
	for _, tc := range shardCases() {
		t.Run(tc.name, func(t *testing.T) {
			a, b := shardPair(t, tc.cfg, tc.ctrl, tc.rate, 4, 200)
			defer b.Close()
			ea, eb := collect(a), collect(b)
			if len(ea) != len(eb) {
				t.Fatalf("event counts differ: 1 shard %d vs 4 shards %d", len(ea), len(eb))
			}
			for i := range ea {
				if ea[i] != eb[i] {
					t.Fatalf("event %d differs: 1 shard %+v vs 4 shards %+v", i, ea[i], eb[i])
				}
			}
			if len(ea) == 0 {
				t.Fatal("expected a non-empty event stream")
			}
		})
	}
}

// TestShardedStepBarriers pins the per-cycle barrier count: a full tick
// on a busy multi-shard network posts exactly two parallel phases
// (power+delivery and the link drain), so each Step advances the pool
// epoch by exactly 2. Every barrier parks and wakes the workers, which
// is what the sharded tick pays for, so a third must not creep back.
func TestShardedStepBarriers(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 2
	cfg.DisableIdleFastForward = true
	n := steadyNetwork(t, cfg, 1)
	defer n.Close()
	for i := 0; i < 200; i++ {
		n.Step()
	}
	for i := 0; i < 500; i++ {
		if n.bufferedFlits == 0 {
			t.Fatalf("cycle %d: no buffered flits; the test needs a busy network", n.Cycle())
		}
		cy, epoch := n.Cycle(), n.pool.epoch.Load()
		n.Step()
		if n.Cycle() != cy+1 {
			t.Fatalf("cycle %d: Step advanced %d cycles, want 1", cy, n.Cycle()-cy)
		}
		if d := n.pool.epoch.Load() - epoch; d != 2 {
			t.Fatalf("cycle %d: Step crossed %d barriers, want 2", cy, d)
		}
	}
}

// TestShardCountClamp asks for more shards than routers: the pool must
// clamp to the node count and still produce the sequential result.
func TestShardCountClamp(t *testing.T) {
	cfg := testConfig()
	ref := mustRun(t, cfg, uniformGen(t, cfg, 0.1, 100), nil)
	cfg.Shards = 1000
	n, err := New(cfg, uniformGen(t, cfg, 0.1, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	got, err := n.RunUntilDrained(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Fatalf("clamped run diverges:\nseq     %+v\nsharded %+v", ref, got)
	}
}

// TestShardedCloseAndRestep covers the worker-pool lifecycle: Close is
// idempotent, and stepping a closed network transparently rebuilds the
// pool without perturbing the simulation.
func TestShardedCloseAndRestep(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	ref, err := New(cfg, uniformGen(t, cfg, 0.1, 150), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	n, err := New(cfg, uniformGen(t, cfg, 0.1, 150), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	n.StepUntil(500)
	n.Close()
	n.Close() // idempotent
	n.StepUntil(1000)

	ref.StepUntil(1000)
	if ref.Fingerprint() != n.Fingerprint() {
		t.Fatal("restepped network diverged from uninterrupted sharded run")
	}
}

// TestShardedSynthetic runs a second traffic pattern (transpose) through
// the sharded path to make sure nothing in the lockstep suite was
// uniform-specific.
func TestShardedSynthetic(t *testing.T) {
	cfg := channelConfig()
	gen := func() traffic.Generator {
		g, err := traffic.NewSynthetic(traffic.SyntheticConfig{
			Width: cfg.Width, Height: cfg.Height, Pattern: traffic.Transpose,
			InjectionRate: 0.1, PacketFlits: 4, Packets: 250, Seed: 21,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ref := mustRun(t, cfg, gen(), nil)
	scfg := cfg
	scfg.Shards = 3
	n, err := New(scfg, gen(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	got, err := n.RunUntilDrained(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Fatalf("transpose run diverges:\nseq     %+v\nsharded %+v", ref, got)
	}
}
