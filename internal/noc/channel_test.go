package noc

import (
	"math/rand"
	"testing"

	"intellinoc/internal/traffic"
)

func mkFlit(id uint64, vc int, t FlitType) *Flit {
	return &Flit{ID: id, VC: vc, Type: t}
}

// testChannel returns a standalone, empty channel with its own
// earliest-ready slot.
func testChannel() *Channel {
	minReady := int64(noReady)
	return &Channel{minReady: &minReady}
}

// bufSink is a buffer-path delivery target with vcs one-slot VCs; the
// VCs listed in full start occupied, so their flits are refused.
func bufSink(vcs int, full ...int) *chanSink {
	s := &chanSink{vcs: make([]inputVC, vcs), depth: 1}
	for _, v := range full {
		s.vcs[v].n = 1
	}
	return s
}

func TestChannelFIFOOrder(t *testing.T) {
	ch := testChannel()
	ch.push(mkFlit(1, 0, FlitHead), 10)
	ch.push(mkFlit(2, 0, FlitTail), 11)
	if ch.len() != 2 {
		t.Fatalf("len = %d", ch.len())
	}
	// Nothing deliverable before readyAt.
	if idx := ch.peekReady(9, false, bufSink(1)); idx != -1 {
		t.Fatal("flit delivered before its readyAt")
	}
	if idx := ch.peekReady(10, false, bufSink(1)); idx != 0 {
		t.Fatalf("head not deliverable at its readyAt, idx=%d", idx)
	}
	f := ch.remove(0)
	if f.ID != 1 || ch.len() != 1 {
		t.Fatal("remove broke FIFO order")
	}
}

func TestChannelHeadOnlyBlocksAll(t *testing.T) {
	ch := testChannel()
	ch.push(mkFlit(1, 0, FlitHead), 0)
	ch.push(mkFlit(2, 1, FlitHead), 0)
	reject0 := bufSink(2, 0) // VC 0's buffer is full
	// Without dynamic allocation, the blocked VC-0 head shields the
	// deliverable VC-1 flit (head-of-line blocking).
	if idx := ch.peekReady(5, false, reject0); idx != -1 {
		t.Fatal("head-only scan must not look past the head")
	}
	// With dynamic allocation the VC-1 flit gets through.
	if idx := ch.peekReady(5, true, reject0); idx != 1 {
		t.Fatalf("dynamic scan should select index 1, got %d", idx)
	}
}

func TestChannelDynamicScanPreservesPerVCOrder(t *testing.T) {
	ch := testChannel()
	ch.push(mkFlit(1, 0, FlitHead), 100) // not ready yet
	ch.push(mkFlit(2, 0, FlitBody), 0)   // ready, but behind same-VC flit
	ch.push(mkFlit(3, 1, FlitHead), 0)   // ready, different VC
	idx := ch.peekReady(5, true, bufSink(2))
	if idx != 2 {
		t.Fatalf("must skip VC0 entirely (order) and pick the VC1 flit: idx=%d", idx)
	}
	// Same if the first VC-0 flit is ready but refused by its
	// destination while a later VC-0 flit would be accepted. The bypass
	// switch makes that observable: it refuses a head whose output has
	// no free VC but forwards a body flit whose VC row is routed.
	cfg := testConfig()
	n, err := New(cfg, uniformGen(t, cfg, 0.1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, p := n.routers[5], PortWest
	head := &Flit{ID: 1, VC: 0, Type: FlitHead, Src: 4, Dst: 7}
	route, _ := n.topo.Route(r.id, head.Src, head.Dst)
	for v := 0; v < cfg.VCs; v++ {
		n.vcBusy[n.vcIndex(r.id, route, v)] = true
	}
	row := &n.ivcs[n.vcIndex(r.id, p, 0)]
	row.route, row.outVC = int8(route), 0
	bypass := &chanSink{n: n, r: r, p: p}
	ch2 := testChannel()
	ch2.push(mkFlit(2, 0, FlitBody), 0)
	if idx := ch2.peekReady(5, true, bypass); idx != 0 {
		t.Fatalf("a lone routed body flit must forward: idx=%d", idx)
	}
	ch2 = testChannel()
	ch2.push(head, 0)
	ch2.push(mkFlit(2, 0, FlitBody), 0)
	if idx := ch2.peekReady(5, true, bypass); idx != -1 {
		t.Fatalf("a refused flit must shield every later flit of its VC: idx=%d", idx)
	}
}

func TestChannelRingWrapAround(t *testing.T) {
	// Push/remove enough traffic that the head index laps the backing
	// array several times; FIFO order must survive every wrap.
	ch := testChannel()
	next := uint64(0)
	want := uint64(0)
	for i := 0; i < 5; i++ {
		ch.push(mkFlit(next, 0, FlitBody), 0)
		next++
	}
	for round := 0; round < 100; round++ {
		f := ch.remove(0)
		if f.ID != want {
			t.Fatalf("round %d: got flit %d, want %d", round, f.ID, want)
		}
		want++
		ch.push(mkFlit(next, 0, FlitBody), 0)
		next++
		if ch.len() != 5 {
			t.Fatalf("round %d: len = %d", round, ch.len())
		}
	}
}

func TestChannelRemoveMidQueue(t *testing.T) {
	ch := testChannel()
	for i := 0; i < 4; i++ {
		ch.push(mkFlit(uint64(i), i%2, FlitBody), 0)
	}
	// Remove index 2 (flit 2); survivors keep their relative order.
	if f := ch.remove(2); f.ID != 2 {
		t.Fatalf("remove(2) returned flit %d", f.ID)
	}
	wantOrder := []uint64{0, 1, 3}
	if ch.len() != len(wantOrder) {
		t.Fatalf("len = %d", ch.len())
	}
	for i, want := range wantOrder {
		if got := ch.at(i).flit.ID; got != want {
			t.Fatalf("slot %d: got flit %d, want %d", i, got, want)
		}
	}
}

func TestChannelEarliestReady(t *testing.T) {
	ch := testChannel()
	if e := *ch.minReady; e != noReady {
		t.Fatalf("empty channel earliest-ready slot = %d", e)
	}
	ch.push(mkFlit(1, 0, FlitHead), 42)
	ch.push(mkFlit(2, 0, FlitBody), 17)
	if e := *ch.minReady; e != 17 {
		t.Fatalf("earliest-ready slot = %d, want 17", e)
	}
}

// TestChannelAnyReady pins the "slot <= cycle" test the wake and
// delivery scans apply to the earliest-ready slot.
func TestChannelAnyReady(t *testing.T) {
	ch := testChannel()
	if *ch.minReady <= 100 {
		t.Fatal("empty channel has nothing ready")
	}
	ch.push(mkFlit(1, 0, FlitHead), 50)
	if *ch.minReady <= 49 {
		t.Fatal("not ready yet")
	}
	if *ch.minReady > 50 {
		t.Fatal("ready at readyAt")
	}
}

func TestChannelEarliestReadyMidQueueRemoval(t *testing.T) {
	ch := testChannel()
	ch.push(mkFlit(1, 0, FlitHead), 30)
	ch.push(mkFlit(2, 1, FlitHead), 10)
	ch.push(mkFlit(3, 0, FlitBody), 20)
	ch.remove(1) // the minimum, from mid-queue
	if e := *ch.minReady; e != 20 {
		t.Fatalf("after removing the mid-queue minimum, slot = %d, want 20", e)
	}
	ch.remove(0) // not the minimum: the slot stays
	if e := *ch.minReady; e != 20 {
		t.Fatalf("after removing a non-minimum, slot = %d, want 20", e)
	}
}

func TestChannelEarliestReadyRemoveToEmpty(t *testing.T) {
	ch := testChannel()
	ch.push(mkFlit(1, 0, FlitHead), 7)
	ch.push(mkFlit(2, 0, FlitTail), 7)
	ch.remove(0)
	if e := *ch.minReady; e != 7 {
		t.Fatalf("tied minimum must survive one removal: slot = %d", e)
	}
	ch.remove(0)
	if e := *ch.minReady; e != noReady {
		t.Fatalf("empty channel must reset the slot to noReady, got %d", e)
	}
}

func TestChannelEarliestReadyNonMonotone(t *testing.T) {
	// A hop-level NACK adds 3 cycles per retry, so a flit pushed later
	// can be ready earlier than one queued ahead of it.
	ch := testChannel()
	ch.push(mkFlit(1, 0, FlitHead), 105) // sent at 100, one retransmit
	ch.push(mkFlit(2, 1, FlitHead), 103) // sent at 101, clean
	if e := *ch.minReady; e != 103 {
		t.Fatalf("slot = %d, want 103", e)
	}
	if idx := ch.peekReady(103, true, bufSink(2)); idx != 1 {
		t.Fatalf("the later-pushed, earlier-ready flit must deliver first: idx=%d", idx)
	}
	ch.remove(1)
	if e := *ch.minReady; e != 105 {
		t.Fatalf("slot = %d, want 105", e)
	}
}

func TestChannelEarliestReadyAcrossWrap(t *testing.T) {
	// Random pushes and removals, with the live window lapping the ring
	// many times: the slot must always equal a full rescan.
	rng := rand.New(rand.NewSource(3))
	ch := testChannel()
	next := uint64(0)
	wraps := 0
	for step := 0; step < 5000; step++ {
		head := ch.head
		if ch.len() == 0 || (ch.len() < 12 && rng.Intn(2) == 0) {
			ch.push(mkFlit(next, rng.Intn(4), FlitBody), int64(100+rng.Intn(20)))
			next++
		} else {
			ch.remove(rng.Intn(ch.len()))
			if ch.head < head {
				wraps++
			}
		}
		if got, want := *ch.minReady, ch.scanMinReady(); got != want {
			t.Fatalf("step %d: slot = %d, rescan = %d", step, got, want)
		}
	}
	if wraps < 10 {
		t.Fatalf("head wrapped only %d times; the test lost its coverage", wraps)
	}
}

func TestRouterFreeVCRoundRobin(t *testing.T) {
	cfg := testConfig()
	cfg.VCs = 2
	n, err := New(cfg, traffic.NewSliceGenerator(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := n.routers[5]
	slot := func(v int) int { return n.vcIndex(r.id, PortEast, v) }
	a := n.freeVC(r, PortEast, -1, false)
	n.vcBusy[slot(a)] = true
	b := n.freeVC(r, PortEast, -1, false)
	if a == b {
		t.Fatal("freeVC must rotate among free VCs")
	}
	n.vcBusy[slot(b)] = true
	if n.freeVC(r, PortEast, -1, false) != -1 {
		t.Fatal("all busy must return -1")
	}
	n.vcBusy[slot(a)] = false
	n.credits[slot(a)] = 0
	if n.freeVC(r, PortEast, -1, true) != -1 {
		t.Fatal("free VC without credit must not qualify")
	}
	n.credits[slot(a)] = 1
	if n.freeVC(r, PortEast, -1, true) != a {
		t.Fatal("free VC with credit must qualify")
	}
	// An ejection sink is uncredited: any free VC qualifies.
	n.vcBusy[n.vcIndex(r.id, PortLocal, 0)] = true
	if v := n.freeVC(r, PortLocal, -1, true); v != 1 {
		t.Fatalf("ejection sink: freeVC = %d, want the free VC 1", v)
	}
}

func TestInputVCReset(t *testing.T) {
	var v inputVC
	v.route, v.vcClass, v.outVC, v.routedAt, v.vaAt = 3, 1, 2, 10, 11
	v.reset()
	if v.route != -1 || v.vcClass != -1 || v.outVC != -1 || v.routedAt != -1 || v.vaAt != -1 {
		t.Fatalf("reset incomplete: %+v", v)
	}
}

func TestFlitTypePredicates(t *testing.T) {
	if !FlitHead.IsHead() || !FlitSingle.IsHead() || FlitBody.IsHead() || FlitTail.IsHead() {
		t.Fatal("IsHead wrong")
	}
	if !FlitTail.IsTail() || !FlitSingle.IsTail() || FlitBody.IsTail() || FlitHead.IsTail() {
		t.Fatal("IsTail wrong")
	}
}

func TestPortNames(t *testing.T) {
	names := map[string]bool{}
	for p := 0; p < NumPorts; p++ {
		n := PortName(p)
		if n == "?" || names[n] {
			t.Fatalf("bad port name %q", n)
		}
		names[n] = true
	}
}

func TestChannelRemoveShiftsShorterSideAcrossWrap(t *testing.T) {
	// Build a wrapped ring: fill the 8-slot backing array, drain the
	// first five, refill — the live window now spans the wrap point.
	mk := func() *Channel {
		ch := testChannel()
		for i := 0; i < 8; i++ {
			ch.push(mkFlit(uint64(i), 0, FlitBody), 0)
		}
		for i := 0; i < 5; i++ {
			ch.remove(0)
		}
		for i := 8; i < 13; i++ {
			ch.push(mkFlit(uint64(i), 0, FlitBody), 0)
		}
		return ch
	}
	check := func(t *testing.T, ch *Channel, want []uint64) {
		t.Helper()
		if ch.len() != len(want) {
			t.Fatalf("len = %d, want %d", ch.len(), len(want))
		}
		for i, id := range want {
			if got := ch.at(i).flit.ID; got != id {
				t.Fatalf("slot %d: got flit %d, want %d", i, got, id)
			}
		}
	}

	// Queue is flits 5..12. Removing index 1 shifts the shorter prefix
	// (one slot) toward the tail of the ring.
	ch := mk()
	if f := ch.remove(1); f.ID != 6 {
		t.Fatalf("remove(1) returned flit %d", f.ID)
	}
	check(t, ch, []uint64{5, 7, 8, 9, 10, 11, 12})

	// Removing index 6 of 8 shifts the shorter suffix instead; the
	// removal crosses the wrap point either way.
	ch = mk()
	if f := ch.remove(6); f.ID != 11 {
		t.Fatalf("remove(6) returned flit %d", f.ID)
	}
	check(t, ch, []uint64{5, 6, 7, 8, 9, 10, 12})

	// Interior removals from a wrapped ring, repeated until empty,
	// always preserve relative order.
	ch = mk()
	ch.remove(3) // flit 8
	ch.remove(3) // flit 9
	check(t, ch, []uint64{5, 6, 7, 10, 11, 12})
}

func TestChannelPeekReadyUntrackedVCBarrier(t *testing.T) {
	// VC ids at or above vcTrackLimit don't fit the scan's "seen"
	// array (a validated Config can never produce them — see the
	// compile-time guard — but the scan must stay order-safe for any
	// input). All untracked VCs collapse into one pessimistic lane: a
	// blocked untracked flit bars every later untracked flit, so a
	// same-VC overtake can never slip through the fallback.
	ch := testChannel()
	ch.push(mkFlit(1, vcTrackLimit+6, FlitHead), 100) // untracked, not ready
	ch.push(mkFlit(2, vcTrackLimit+6, FlitBody), 0)   // untracked, ready: must NOT overtake
	ch.push(mkFlit(3, vcTrackLimit+9, FlitHead), 0)   // other untracked VC: still barred
	ch.push(mkFlit(4, 1, FlitHead), 0)                // tracked VC: deliverable
	accept := bufSink(vcTrackLimit + 10)
	if idx := ch.peekReady(5, true, accept); idx != 3 {
		t.Fatalf("scan must bar untracked VCs behind their blocked head and pick the tracked flit: idx=%d", idx)
	}
	// The first untracked flit itself delivers normally once ready.
	if idx := ch.peekReady(100, true, accept); idx != 0 {
		t.Fatalf("ready untracked head must deliver: idx=%d", idx)
	}
}

func TestConfigValidateBoundsVCs(t *testing.T) {
	cfg := testConfig()
	cfg.VCs = maxVCs + 1
	if err := cfg.Validate(); err == nil {
		t.Fatalf("VCs=%d must be rejected (vcTrackLimit guard depends on it)", cfg.VCs)
	}
	cfg.VCs = maxVCs
	if err := cfg.Validate(); err != nil {
		t.Fatalf("VCs=%d must validate: %v", cfg.VCs, err)
	}
	// The VC rings are allocated at full depth, so the depth is bounded.
	cfg.BufDepth = maxBufDepth + 1
	if err := cfg.Validate(); err == nil {
		t.Fatalf("BufDepth=%d must be rejected", cfg.BufDepth)
	}
	cfg.BufDepth = maxBufDepth
	if err := cfg.Validate(); err != nil {
		t.Fatalf("BufDepth=%d must validate: %v", cfg.BufDepth, err)
	}
}
