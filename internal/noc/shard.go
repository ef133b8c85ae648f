package noc

import (
	"runtime"
	"sync/atomic"
)

// The tick: step() in network.go runs every shard count through one
// schedule of phases. Shards are contiguous router-id ranges (a
// geometry-free partition: no phase assumes a shard is a row slab, so the
// same split serves meshes, tori, chiplet hierarchies, and routerless
// loops alike). A one-shard pool has no workers, and runPhase runs the
// phase inline: no goroutines, no atomics, no barrier. With more shards
// the per-router scans fan out across persistent workers, and every
// order-sensitive mutation stays on the coordinating goroutine.
//
// The network cannot be naively partitioned because the schedule has
// same-cycle cross-router visibility in exactly one place: when router
// i's switch allocation pops a flit, the freed buffer slot's credit
// returns to the upstream router immediately, and a higher-numbered router
// j > i sees that credit within the same cycle's arbitration pass. So the
// router pipelines (phase 4: sa;va;rc fused per router, plus the bypass
// switch of gated routers) run on the coordinator in router index order
// at every shard count, together with the other order-sensitive work —
// link PRNG draws, control-fault draws, ejection, packet/flit id
// assignment, floating-point meter flushes. Only the per-router scans
// whose reads provably cannot observe another router's same-phase writes
// fan out, and each costs one barrier:
//
//	phase 2+3  power-state + channel deliveries   (own router/channels)
//	phase 6    staged link-push drain             (own channels)
//
// No phase does per-router work for a router without work: the per-cycle
// counters are banked at state changes (see Network.staticFrom, winOcc
// and nGated), so phase 6 is only the multi-shard link drain, and one
// shard skips it. Each scan reads one slab word per router and calls
// into the router only when that word says there is work.
//
// Cross-router side effects of the parallel phases (bufferedFlits,
// lastProgress, the gated-router count, event emission) are accumulated
// per shard in a shardSlot and committed after the phase in shard order,
// which equals router-index order. Event hooks therefore fire only from
// the coordinating goroutine, in the same order at every shard count —
// the single-goroutine guarantee SetEventHook documents.

// Phase selectors for shardPool.runPhase.
const (
	phasePowerDeliver = iota
	phaseDrainLinks
)

// shardSlot accumulates one shard's cross-router side effects during a
// phase, for an in-order commit after it.
type shardSlot struct {
	gateEvents    []Event // power-state phase (EvGate/EvWake), router order
	deliverEvents []Event // delivery phase (EvDeliver), router order
	buffered      int     // bufferedFlits delta
	progress      bool    // any delivery happened (lastProgress = cy)
	gatedDelta    int     // power-phase change in the gated-router count
	// stagedLinks holds the link pushes bound for this shard's channels,
	// appended by the coordinator during the router pipelines and drained
	// by the owning shard at the end of the tick (see stagedPush).
	stagedLinks []stagedPush
}

// stagedPush is one deferred linkPush into the channel at slab index
// chanIdx. The router pipelines run entirely on the coordinator, and many
// of their link pushes go into channels owned by other shards. Staging
// the pushes per destination shard and draining them in the parallel
// drain phase moves the ring work off the coordinator and keeps the
// channel cache lines shard-local. The deferral is invisible to the tick:
// a pushed flit's readyAt is at least cy+2, every channel has exactly one
// upstream writer granting at most one flit per cycle, and nothing before
// the drain can take a flit that is not yet ready.
type stagedPush struct {
	chanIdx int
	flit    *Flit
	readyAt int64
}

// emitGate buffers a power-state event in the shard's slot for the
// in-order flush after the phase.
func (n *Network) emitGate(slot *shardSlot, e Event) {
	if n.eventHook != nil {
		slot.gateEvents = append(slot.gateEvents, e)
	}
}

// shardWorker is the parking state of one worker goroutine. Workers spin
// briefly between phases (the inter-phase gaps are microseconds), then
// park on the wake channel so an idle or abandoned network doesn't burn a
// core.
type shardWorker struct {
	wake   chan struct{}
	parked atomic.Bool
}

// shardPool runs the per-router scan phases over the shards. The
// coordinating goroutine (whoever calls Step) executes shard 0 itself and
// everything in order between the phases; workers 1..S-1 wait for the
// epoch counter to advance, run the posted phase over their router range,
// and signal completion. All cross-goroutine handoff is through sync/atomic,
// which the race detector understands. A one-shard pool has no workers.
type shardPool struct {
	n       *Network
	lo, hi  []int   // router id range [lo, hi) per shard (contiguous, ascending)
	shardOf []int32 // owning shard per router id
	slots   []*shardSlot

	cy      int64 // cycle being stepped; published by epoch.Add
	phase   int   // phase to run; published by epoch.Add
	epoch   atomic.Uint32
	pending atomic.Int32
	closed  atomic.Bool
	workers []*shardWorker
}

func newShardPool(n *Network, shards int) *shardPool {
	nodes := len(n.routers)
	sp := &shardPool{n: n, shardOf: make([]int32, nodes)}
	for s := 0; s < shards; s++ {
		sp.lo = append(sp.lo, s*nodes/shards)
		sp.hi = append(sp.hi, (s+1)*nodes/shards)
		sp.slots = append(sp.slots, &shardSlot{})
		for id := sp.lo[s]; id < sp.hi[s]; id++ {
			sp.shardOf[id] = int32(s)
		}
	}
	for s := 1; s < shards; s++ {
		w := &shardWorker{wake: make(chan struct{}, 1)}
		sp.workers = append(sp.workers, w)
		go sp.workerLoop(s, w)
	}
	return sp
}

// Close stops the stepper's worker goroutines (a one-shard network has
// none). It is safe to call repeatedly; stepping again after Close starts
// a fresh pool. Like Step, it must not race other methods of the Network.
func (n *Network) Close() {
	if n.pool != nil {
		n.pool.close()
	}
}

func (sp *shardPool) close() {
	if !sp.closed.CompareAndSwap(false, true) {
		return
	}
	sp.epoch.Add(1)
	for _, w := range sp.workers {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

func (sp *shardPool) workerLoop(s int, w *shardWorker) {
	last := uint32(0)
	for {
		spins := 0
		for sp.epoch.Load() == last {
			spins++
			if spins < 64 {
				continue
			}
			if spins < 1024 {
				runtime.Gosched()
				continue
			}
			// Park. The epoch re-check after publishing parked closes the
			// race with a coordinator that bumped the epoch before seeing
			// the flag; a stale wake token only causes one extra loop.
			w.parked.Store(true)
			if sp.epoch.Load() == last {
				<-w.wake
			}
			w.parked.Store(false)
		}
		last = sp.epoch.Load()
		if sp.closed.Load() {
			return
		}
		sp.runShard(sp.phase, s)
		sp.pending.Add(-1)
	}
}

// runPhase posts a phase, runs shard 0 on the calling goroutine, and
// blocks until every worker has finished — the per-cycle barrier. Without
// workers it is a plain call.
func (sp *shardPool) runPhase(phase int, cy int64) {
	sp.phase, sp.cy = phase, cy
	if len(sp.workers) == 0 {
		sp.runShard(phase, 0)
		return
	}
	sp.pending.Store(int32(len(sp.workers)))
	sp.epoch.Add(1)
	for _, w := range sp.workers {
		if w.parked.Load() {
			select {
			case w.wake <- struct{}{}:
			default:
			}
		}
	}
	sp.runShard(phase, 0)
	for spins := 0; sp.pending.Load() != 0; spins++ {
		if spins > 32 {
			runtime.Gosched()
		}
	}
}

func (sp *shardPool) runShard(phase, s int) {
	switch phase {
	case phasePowerDeliver:
		sp.powerDeliver(s)
	case phaseDrainLinks:
		sp.drainLinks(s)
	}
}

// powerDeliver fuses step phases 2 and 3 for one shard. Running all of a
// shard's power-state steps before its deliveries preserves the global
// 2-before-3 order for every router pair that interacts (a router's
// delivery only touches its own channels and buffers, which no other
// router's power-state step reads). Without power gating or bypass no
// router can ever gate or wake, so phase 2 is skipped. CP-style gating
// visits every router (the idle streak counts each cycle); bypass designs
// visit only the routers powerStateStep can change there — waking ones,
// and ungated mode-0 ones that gate once drained. Deliveries go to every
// active router with a channel flit ready this cycle: a mode-0 router
// keeps its pipeline fully operational until its buffers happen to drain
// — refusing deliveries to force a drain would let two adjacent mode-0
// routers deadlock waiting on each other's credits.
func (sp *shardPool) powerDeliver(s int) {
	n, cy, slot := sp.n, sp.cy, sp.slots[s]
	lo, hi := sp.lo[s], sp.hi[s]
	switch {
	case n.cfg.Bypass:
		for id := lo; id < hi; id++ {
			if n.rWaking[id] > 0 || (n.rBypassMode[id] && !n.rGated[id]) {
				n.powerStateStep(n.routers[id], cy, slot)
			}
		}
	case n.cfg.PowerGating:
		for id := lo; id < hi; id++ {
			n.powerStateStep(n.routers[id], cy, slot)
		}
	}
	for id := lo; id < hi; id++ {
		if n.rMinReady[id] <= cy && n.active(id) {
			n.deliverChannels(n.routers[id], cy, slot)
		}
	}
}

// drainLinks pushes the shard's staged link flits (see stagedPush) into
// their channels. Each staged channel belongs to a router in this shard,
// no other phase-6 work touches channels, and per channel there is at
// most one push per cycle, so the drain is race-free and leaves the rings
// exactly as direct pushes would. The same holds for each push's
// earliest-ready slot and router word (Network.inMinReady, rMinReady),
// which belong to the receiving router: in this phase only its owning
// shard writes them.
func (sp *shardPool) drainLinks(s int) {
	n, slot := sp.n, sp.slots[s]
	for i, st := range slot.stagedLinks {
		n.linkPush(st.chanIdx, st.flit, st.readyAt)
		slot.stagedLinks[i] = stagedPush{}
	}
	slot.stagedLinks = slot.stagedLinks[:0]
}
