package noc

import "math"

// Channel models one inter-router link and its MFAC buffer stages
// (Fig. 2/3). A channel is a latency-tagged FIFO:
//
//   - as a *transmission repeater* it simply delays flits by its traversal
//     latency;
//   - as *link storage* it holds flits that the downstream router buffer
//     cannot yet accept (occupancy is bounded by the per-VC credits the
//     sender holds, not by a hard FIFO capacity);
//   - as a *re-transmission buffer* it resends a flit after a hop-level
//     NACK without involving the upstream router's buffers (the extra
//     delay and energy are applied by the fault-resolution path in
//     links.go);
//   - as a *relaxed-timing buffer* it doubles the traversal latency,
//     which the fault model rewards with a collapsed error rate.
//
// The function in force is selected per time step by the upstream
// router's operation mode.
//
// The queue is a ring buffer: delivering the head flit — by far the
// common case — is O(1) instead of the O(n) shift a slice-backed FIFO
// pays, and storage is reused across the run instead of churning the GC.
// The ring grows on demand; the Channel structs themselves live in the
// network's channel slab (Network.chans).
type Channel struct {
	buf  []channelFlit
	head int
	n    int
	// minReady points at this channel's Network.inMinReady slot: the
	// earliest readyAt among the queued flits, noReady when empty. push
	// and remove keep it exact, so the delivery scan reads one slab word
	// per port instead of walking the ring; the network folds each
	// router's slots into its rMinReady word after every push and
	// removal.
	minReady *int64
}

// channelFlit is one queued flit with the VC it travels on (recorded at
// push; f.VC is not written while the flit is queued), so the delivery
// scan reads VC and timing from the ring without loading the flit.
type channelFlit struct {
	flit    *Flit
	readyAt int64
	vc      int
}

// noReady is the inMinReady sentinel of an empty (or absent) channel: no
// cycle is ever >= it, so "slot > cy" skips the port.
const noReady = math.MaxInt64

// vcTrackLimit sizes peekReady's per-VC "seen" scratch array. Every VC id
// a validated Config can produce must fit, or the dynamic-allocation scan
// could not enforce per-VC ordering; the conversion below fails to
// compile if maxVCs ever outgrows the tracked range.
const vcTrackLimit = 64

const _ = uint(vcTrackLimit - maxVCs) // compile-time: maxVCs <= vcTrackLimit

// at returns the i-th queued flit counting from the head (0 <= i < c.n).
func (c *Channel) at(i int) *channelFlit {
	j := c.head + i
	if j >= len(c.buf) {
		j -= len(c.buf)
	}
	return &c.buf[j]
}

// push enqueues a flit on its current VC that becomes deliverable at
// readyAt.
func (c *Channel) push(f *Flit, readyAt int64) {
	if c.n == len(c.buf) {
		grown := make([]channelFlit, max(8, 2*len(c.buf)))
		for i := 0; i < c.n; i++ {
			grown[i] = *c.at(i)
		}
		c.buf, c.head = grown, 0
	}
	*c.at(c.n) = channelFlit{flit: f, readyAt: readyAt, vc: f.VC}
	c.n++
	if readyAt < *c.minReady {
		*c.minReady = readyAt
	}
}

// len returns the number of flits stored or in flight.
func (c *Channel) len() int { return c.n }

// chanSink is where a channel's flits are delivered: the VC buffers of
// an input port (vcs, the port's row of the input-VC slab), or — when n
// is set — router r's bypass switch for input port p. The buffer test
// reads only the recorded VC and the ring length, never the flit.
type chanSink struct {
	vcs   []inputVC
	depth int32
	n     *Network
	r     *Router
	p     int
}

func (s *chanSink) accepts(cf *channelFlit) bool {
	if s.n != nil {
		return s.n.bypassCanForward(s.r, s.p, cf.flit)
	}
	return s.vcs[cf.vc].n < s.depth
}

// peekReady returns the index of the first flit deliverable into dst,
// honouring per-VC ordering. With dynamicAlloc (the unified-BST
// allocation of Section 3.1.2) it may look past a blocked head as long as
// no earlier flit shares the candidate's VC; otherwise only the head
// qualifies.
func (c *Channel) peekReady(cycle int64, dynamicAlloc bool, dst *chanSink) int {
	if c.n == 0 {
		return -1
	}
	if !dynamicAlloc {
		head := c.at(0)
		if head.readyAt <= cycle && dst.accepts(head) {
			return 0
		}
		return -1
	}
	var seen [vcTrackLimit]bool // VCs are small; fixed array avoids allocation
	seenUntracked := false
	for i := 0; i < c.n; i++ {
		cf := c.at(i)
		vc := cf.vc
		if vc < 0 || vc >= len(seen) {
			// A VC id outside the tracked range (impossible for a
			// validated Config, which caps VCs at maxVCs) cannot be
			// followed per VC. Collapse all untracked ids into one
			// pessimistic lane: the first such flit shields every later
			// one, so per-VC order still cannot be violated.
			if seenUntracked {
				continue
			}
			if cf.readyAt <= cycle && dst.accepts(cf) {
				return i
			}
			seenUntracked = true
			continue
		}
		if seen[vc] {
			continue
		}
		// Whether blocked by timing or by a full buffer, this flit
		// now shields every later flit on the same VC so per-VC
		// order is preserved.
		if cf.readyAt <= cycle && dst.accepts(cf) {
			return i
		}
		seen[vc] = true
	}
	return -1
}

// remove extracts the flit at index i (counted from the head), preserving
// order. Removing the head is O(1); a mid-queue removal shifts whichever
// side of the hole is shorter — the prefix in front of it (advancing the
// head) or the suffix behind it. The earliest-ready slot is rescanned only
// when the removed flit held the minimum.
func (c *Channel) remove(i int) *Flit {
	cf := c.at(i)
	f, readyAt := cf.flit, cf.readyAt
	if i <= c.n-1-i {
		for j := i; j > 0; j-- {
			*c.at(j) = *c.at(j - 1)
		}
		c.at(0).flit = nil // release the reference for the flit free-list
		c.head++
		if c.head == len(c.buf) {
			c.head = 0
		}
	} else {
		for j := i; j < c.n-1; j++ {
			*c.at(j) = *c.at(j + 1)
		}
		c.at(c.n - 1).flit = nil
	}
	c.n--
	if readyAt == *c.minReady {
		*c.minReady = c.scanMinReady()
	}
	return f
}

// scanMinReady recomputes the earliest readyAt from the ring (noReady
// when empty).
func (c *Channel) scanMinReady() int64 {
	e := int64(noReady)
	for i := 0; i < c.n; i++ {
		if r := c.at(i).readyAt; r < e {
			e = r
		}
	}
	return e
}
