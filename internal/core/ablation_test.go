package core

import (
	"context"
	"errors"
	"testing"

	"intellinoc/internal/noc"
	"intellinoc/internal/stats"
)

func TestAblationNames(t *testing.T) {
	seen := map[string]bool{}
	for _, ab := range Ablations() {
		s := ab.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("bad or duplicate ablation name %q", s)
		}
		seen[s] = true
	}
	if !seen["full"] {
		t.Fatal("full design must be included")
	}
}

// ablationPin is the part of an ablation run's Result that
// TestAblationsRunToCompletion pins.
type ablationPin struct {
	cycles                     int64
	delivered, hopRetx, e2eRtx uint64
	gated                      uint64
	modes                      stats.ModeBreakdown
	avgLatency, dynamicJoules  float64
}

// TestAblationsRunToCompletion runs every variant, untrained and with a
// pretrained policy, and pins each result bit for bit. Ablation runs are
// in no quick-suite golden, so this is what shows a change in how a
// variant builds its controller or configures its network.
func TestAblationsRunToCompletion(t *testing.T) {
	sim := smallSim()
	policy, err := Pretrain(sim, 1, 400)
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool][]ablationPin{
		false: {
			{1815, 500, 0, 28, 0, stats.ModeBreakdown{0, 24000, 0, 0, 0}, 18.498, 1.6344439999999982e-08},
			{1855, 500, 0, 24, 1064, stats.ModeBreakdown{0, 24000, 0, 0, 0}, 18.722, 1.6593319999999985e-08},
			{1869, 500, 0, 0, 0, stats.ModeBreakdown{0, 0, 24000, 0, 0}, 20.622, 1.7941919999999888e-08},
			{1815, 500, 0, 28, 0, stats.ModeBreakdown{0, 24000, 0, 0, 0}, 18.498, 1.6344439999999982e-08},
			{1812, 500, 0, 28, 0, stats.ModeBreakdown{0, 23000, 1000, 0, 0}, 18.622, 1.6402199999999968e-08},
		},
		true: {
			{1800, 500, 0, 28, 807, stats.ModeBreakdown{500, 22500, 0, 500, 500}, 18.78, 1.6212039999999986e-08},
			{1987, 500, 0, 28, 2465, stats.ModeBreakdown{0, 23000, 0, 500, 500}, 19.052, 1.6841199999999986e-08},
			{1847, 500, 0, 0, 854, stats.ModeBreakdown{500, 0, 23500, 0, 0}, 20.458, 1.7691119999999892e-08},
			{1800, 500, 0, 28, 807, stats.ModeBreakdown{500, 22500, 0, 1000, 0}, 18.712, 1.628369999999998e-08},
			{1812, 500, 0, 28, 0, stats.ModeBreakdown{0, 23000, 1000, 0, 0}, 18.622, 1.6402199999999968e-08},
		},
	}
	for _, pretrained := range []bool{false, true} {
		pol := policy
		if !pretrained {
			pol = nil
		}
		for i, ab := range Ablations() {
			res, err := RunAblation(context.Background(), ab, sim, smallWorkload(t, 500), pol)
			if err != nil {
				t.Fatalf("%v: %v", ab, err)
			}
			if res.PacketsDelivered+res.PacketsFailed != 500 {
				t.Fatalf("%v: lost packets (%d+%d)", ab, res.PacketsDelivered, res.PacketsFailed)
			}
			got := ablationPin{res.Cycles, res.PacketsDelivered, res.HopRetransmits, res.E2ERetransmits,
				res.GatedCycles, res.ModeBreakdown, res.AvgLatency, res.DynamicJoules}
			if got != want[pretrained][i] {
				t.Errorf("%v (pretrained %v): result %+v, want %+v", ab, pretrained, got, want[pretrained][i])
			}
		}
	}
}

// TestAblationCancellation checks that a cancelled context stops every
// variant early, with an error wrapping context.Canceled.
func TestAblationCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ab := range Ablations() {
		res, err := RunAblation(ctx, ab, smallSim(), smallWorkload(t, 3000), nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: error %v, want one wrapping context.Canceled", ab, err)
		}
		if res.PacketsDelivered+res.PacketsFailed == 3000 {
			t.Fatalf("%v: a cancelled run delivered its whole workload", ab)
		}
	}
}

func TestAblationNoBypassNeverGatesViaMode0(t *testing.T) {
	sim := smallSim()
	res, err := RunAblation(context.Background(), AblationNoBypass, sim, smallWorkload(t, 500), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModeBreakdown[0] != 0 {
		t.Fatal("-bypass variant must never apply mode 0")
	}
}

func TestAblationNoAdaptiveECCPinsSECDED(t *testing.T) {
	sim := smallSim()
	res, err := RunAblation(context.Background(), AblationNoAdaptiveECC, sim, smallWorkload(t, 500), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModeBreakdown[1] != 0 || res.ModeBreakdown[3] != 0 || res.ModeBreakdown[4] != 0 {
		t.Fatalf("-adaptiveECC must only apply modes 0 and 2: %v", res.ModeBreakdown)
	}
}

func TestAblationNoRelaxedDegradesToDECTED(t *testing.T) {
	sim := smallSim()
	res, err := RunAblation(context.Background(), AblationNoRelaxed, sim, smallWorkload(t, 500), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModeBreakdown[4] != 0 {
		t.Fatal("-relaxed variant must never apply mode 4")
	}
}

func TestModeFilterPreservesInnerObservations(t *testing.T) {
	inner := &recordingCtrl{}
	f := modeFilter{inner: inner, remap: func(noc.Mode) noc.Mode { return noc.ModeSECDED }}
	obs := noc.Observation{Router: 3}
	if got := f.NextMode(obs); got != noc.ModeSECDED {
		t.Fatalf("remap not applied: %v", got)
	}
	if len(inner.seen) != 1 || inner.seen[0].Router != 3 {
		t.Fatal("inner controller must receive the observation")
	}
}

type recordingCtrl struct{ seen []noc.Observation }

func (c *recordingCtrl) NextMode(obs noc.Observation) noc.Mode {
	c.seen = append(c.seen, obs)
	return noc.ModeRelaxed
}
