package noc

import (
	"fmt"
	"testing"

	"intellinoc/internal/traffic"
)

// cpRun is what runCP saw of a CP-style run: each router's gate and
// wake cycles, and the cycle of its last buffer drain (the last flit that
// left its buffers by traversal or ejection).
type cpRun struct {
	gates     map[int][]int64
	wakes     map[int][]int64
	lastDrain map[int]int64
	ffToGate  bool // a fast-forward ended on a cycle that gated a router
}

// runCP drives a 4×4 CP-style network with the given idle-gate threshold
// and dependency window over pkts until it drains (and at least 400
// cycles), auditing CheckInvariants after every step.
func runCP(t *testing.T, gate int, window int, noFF bool, pkts []traffic.Packet) *cpRun {
	t.Helper()
	cfg := testConfig()
	cfg.PowerGating = true
	cfg.IdleGateCycles = gate
	cfg.WakeupCycles = 8
	cfg.DependencyWindow = window
	cfg.DisableIdleFastForward = noFF
	n, err := New(cfg, traffic.NewSliceGenerator(pkts), nil)
	if err != nil {
		t.Fatal(err)
	}
	run := &cpRun{gates: map[int][]int64{}, wakes: map[int][]int64{}, lastDrain: map[int]int64{}}
	n.SetEventHook(func(e Event) {
		switch e.Kind {
		case EvGate:
			run.gates[e.Router] = append(run.gates[e.Router], e.Cycle)
		case EvWake:
			run.wakes[e.Router] = append(run.wakes[e.Router], e.Cycle)
		case EvTraverse, EvEject:
			run.lastDrain[e.Router] = e.Cycle
		}
	})
	for !n.Drained() || n.Cycle() < 400 {
		before := n.Cycle()
		gated := n.nGated
		n.Step()
		if jumped := n.Cycle() - before; jumped > 1 {
			// The step after a jump is the cycle the jump stopped at.
			n.Step()
			if n.nGated > gated {
				run.ffToGate = true
			}
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", n.Cycle(), err)
		}
		if n.Cycle() > 100_000 {
			t.Fatal("network did not drain")
		}
	}
	return run
}

// TestCPGatesIdleGateCyclesAfterLastDrain pins the CP idle-gate timing: a
// router that is never busy gates at cycle IdleGateCycles-1 (its power
// checks at cycles 0..IdleGateCycles-1 all find it idle), and a router
// whose buffers last drained at cycle x gates at exactly
// x+IdleGateCycles.
func TestCPGatesIdleGateCyclesAfterLastDrain(t *testing.T) {
	const gate = 64
	// One packet along row 0: routers 0..3 forward it, the rest stay idle.
	run := runCP(t, gate, 0, false, []traffic.Packet{{Time: 0, Src: 0, Dst: 3, Flits: 4}})
	for id := 0; id < 16; id++ {
		want := int64(gate - 1)
		if x, ok := run.lastDrain[id]; ok {
			want = x + gate
		}
		if got := run.gates[id]; len(got) != 1 || got[0] != want {
			t.Errorf("router %d gated at %v, want once at %d", id, got, want)
		}
		if w := run.wakes[id]; len(w) != 0 {
			t.Errorf("router %d woke at %v", id, w)
		}
	}
	for id := 0; id <= 3; id++ {
		if _, ok := run.lastDrain[id]; !ok {
			t.Fatalf("router %d on the path forwarded nothing", id)
		}
	}
}

// TestCPChannelFlitRestartsIdleStreak sends a second packet through a
// router while it counts down to gating: the new traffic restarts the
// streak, so it gates IdleGateCycles after the second packet's drain and
// never has to wake.
func TestCPChannelFlitRestartsIdleStreak(t *testing.T) {
	const gate = 64
	run := runCP(t, gate, 0, false, []traffic.Packet{
		{Time: 0, Src: 0, Dst: 3, Flits: 4},
		{Time: 40, Src: 0, Dst: 3, Flits: 4},
	})
	x := run.lastDrain[1] // the second packet's drain
	if x < 40 {
		t.Fatalf("router 1 last drained at cycle %d, before the second packet", x)
	}
	if got := run.gates[1]; len(got) != 1 || got[0] != x+gate {
		t.Fatalf("router 1 gated at %v, want once at %d", got, x+gate)
	}
	if w := run.wakes[1]; len(w) != 0 {
		t.Fatalf("router 1 woke at %v", w)
	}
}

// TestCPNICBacklogKeepsRouterUngated holds a backlog in router 0's NIC
// behind a one-packet dependency window. Between round trips the router's
// buffers and channels are empty for far longer than the idle-gate
// threshold, but a pending NIC packet keeps it busy: it must not gate
// until the backlog is gone.
func TestCPNICBacklogKeepsRouterUngated(t *testing.T) {
	const gate = 4
	var pkts []traffic.Packet
	for i := 0; i < 6; i++ {
		pkts = append(pkts, traffic.Packet{Time: 0, Src: 0, Dst: 15, Flits: 4})
	}
	run := runCP(t, gate, 1, false, pkts)
	x := run.lastDrain[0]
	if got := run.gates[0]; len(got) != 1 || got[0] != x+gate {
		t.Fatalf("router 0 gated at %v, want once at %d (its last drain %d + %d)", got, x+gate, x, gate)
	}
	// The backlog spans several round trips, each longer than the gate.
	if x < 6*2*gate {
		t.Fatalf("router 0 last drained at cycle %d: the backlog did not outlast the gate", x)
	}
}

// TestCPFastForwardGatesOnDeadline checks that a fast-forward stops on a
// gating deadline and gates there, on the same cycle stepping does.
func TestCPFastForwardGatesOnDeadline(t *testing.T) {
	pkts := []traffic.Packet{
		{Time: 0, Src: 0, Dst: 3, Flits: 4},
		{Time: 300, Src: 12, Dst: 5, Flits: 4}, // wakes gated routers
	}
	fast := runCP(t, 64, 0, false, pkts)
	slow := runCP(t, 64, 0, true, pkts)
	if !fast.ffToGate {
		t.Fatal("no fast-forward ended on a gating deadline")
	}
	if f, s := fmt.Sprint(fast.gates, fast.wakes), fmt.Sprint(slow.gates, slow.wakes); f != s {
		t.Fatalf("gate/wake cycles differ:\nfast-forward: %s\nstepping:     %s", f, s)
	}
}

// TestBypassSkipIsExact probes every port the bypass switch skips — a
// gated router's channel port with no flit ready and its NIC port before
// the NIC's eligibility word — with the full switch attempt: each must
// refuse, and together they must leave the network's fingerprint
// unchanged. The closed loop keeps NICs holding packets that wait on
// their dependency window, so the NIC probes are not all of empty queues.
func TestBypassSkipIsExact(t *testing.T) {
	cfg := channelConfig()
	cfg.PowerGating = true
	cfg.Bypass = true
	cfg.DependencyWindow = 1
	n, err := New(cfg, uniformGen(t, cfg, 0.08, 300), StaticController(ModeBypass))
	if err != nil {
		t.Fatal(err)
	}
	probes, backlogged, queued := 0, 0, 0
	for !n.Drained() {
		cy := n.cycle
		before := n.Fingerprint()
		for id, r := range n.routers {
			if !n.rGated[id] {
				continue
			}
			for p := 0; p < NumPorts; p++ {
				due, nic := n.inMinReady[id*NumPorts+p], p == PortLocal && r.in[p].ch == nil
				if nic {
					due = n.nicReady[id]
				}
				if due <= cy {
					continue
				}
				switch {
				case nic && n.nics[id].pending():
					backlogged++
				case !nic && due != noReady:
					queued++
				}
				if n.tryBypassPort(r, p, cy) {
					t.Fatalf("cycle %d: router %d forwarded from skipped port %s", cy, id, PortName(p))
				}
				probes++
			}
		}
		if n.Fingerprint() != before {
			t.Fatalf("cycle %d: probing the skipped bypass ports changed the state", cy)
		}
		n.Step()
		if n.cycle > 1_000_000 {
			t.Fatal("network did not drain")
		}
	}
	if probes == 0 || backlogged == 0 || queued == 0 {
		t.Fatalf("probes %d, backlogged NIC probes %d, queued-channel probes %d: the test exercised nothing", probes, backlogged, queued)
	}
}

// TestInvariantsCatchStaleGateDeadline corrupts an idle CP router's
// gating deadline to just outside the window CheckInvariants allows.
func TestInvariantsCatchStaleGateDeadline(t *testing.T) {
	cfg := testConfig()
	cfg.PowerGating = true
	n, err := New(cfg, traffic.NewSliceGenerator([]traffic.Packet{{Time: 500, Src: 0, Dst: 3, Flits: 4}}), nil)
	if err != nil {
		t.Fatal(err)
	}
	n.Step()
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("healthy network: %v", err)
	}
	saved := n.gateAt[5]
	for _, bad := range []int64{n.cycle - 1, n.cycle + int64(cfg.IdleGateCycles)} {
		n.gateAt[5] = bad
		if err := n.CheckInvariants(); err == nil {
			t.Errorf("idle router gating at cycle %d (now %d) went unreported", bad, n.cycle)
		}
	}
	n.gateAt[5] = saved
}
