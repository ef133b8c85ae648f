// Package telemetry is the simulator's observability layer: a bounded
// flight recorder over the simulator's event/epoch/decision hooks, a
// Chrome trace-event JSON exporter (chrome://tracing, Perfetto), and a
// small metrics registry with a Prometheus-text snapshot writer.
//
// The overhead contract (DESIGN.md §9): every hook in the simulator is
// nil-guarded and costs a single predictable branch when disabled, so a
// run with no telemetry attached produces bit-identical Results and keeps
// the hot path's allocs/cycle at the BENCH_noc.json baseline. When
// enabled, recording is amortized-allocation-free: entries are copied by
// value into a pre-allocated ring.
package telemetry

import (
	"fmt"

	"intellinoc/internal/noc"
	"intellinoc/internal/rl"
)

// EntryKind discriminates the flight recorder's entry union.
type EntryKind int

const (
	// EntryEvent wraps a noc.Event.
	EntryEvent EntryKind = iota
	// EntryEpoch wraps a noc.EpochSample.
	EntryEpoch
	// EntryDecision wraps an rl.DecisionSample.
	EntryDecision
)

// Entry is one recorded occurrence. It is a by-value union rather than an
// interface so that recording never boxes (and therefore never allocates)
// on the simulation thread.
type Entry struct {
	Kind     EntryKind
	Event    noc.Event
	Epoch    noc.EpochSample
	Decision rl.DecisionSample
}

// Cycle returns the simulation cycle the entry was recorded at.
func (e Entry) Cycle() int64 {
	switch e.Kind {
	case EntryEpoch:
		return e.Epoch.Cycle
	case EntryDecision:
		return e.Decision.Cycle
	default:
		return e.Event.Cycle
	}
}

// String renders the entry as one flight-recorder line.
func (e Entry) String() string {
	switch e.Kind {
	case EntryEpoch:
		return e.Epoch.String()
	case EntryDecision:
		d := e.Decision
		return fmt.Sprintf("%8d decision       router=%d state=%d action=%d reward=%.3f q[min=%.3f max=%.3f] table=%d",
			d.Cycle, d.Router, uint64(d.State), d.Action, d.Reward, d.Row.Min, d.Row.Max, d.TableSize)
	default:
		return e.Event.String()
	}
}

// Recorder is a bounded ring buffer of the most recent telemetry entries —
// a flight recorder: always cheap to feed, dumped only when something goes
// wrong (diffcheck attaches one to every differential run and ships its
// tail with each finding). It is not safe for concurrent use; the
// simulator delivers hooks synchronously on one goroutine.
type Recorder struct {
	ring  []Entry
	next  int
	total uint64
}

// DefaultCapacity is the tail length diffcheck and the CLIs use: long
// enough to show the control decisions and events leading into a divergent
// cycle, short enough to read in a terminal.
const DefaultCapacity = 48

// NewRecorder returns a recorder holding the last capacity entries
// (DefaultCapacity if capacity <= 0). The ring is allocated up front;
// recording never allocates afterwards.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: make([]Entry, 0, capacity)}
}

func (r *Recorder) push(e Entry) {
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.next] = e
	}
	r.next++
	if r.next == cap(r.ring) {
		r.next = 0
	}
	r.total++
}

// RecordEvent records a simulator event; install it with
// noc.Network.SetEventHook (or call it from your own hook to tee).
func (r *Recorder) RecordEvent(e noc.Event) { r.push(Entry{Kind: EntryEvent, Event: e}) }

// RecordEpoch records a per-router control-window sample; install it with
// noc.Network.SetEpochHook.
func (r *Recorder) RecordEpoch(s noc.EpochSample) { r.push(Entry{Kind: EntryEpoch, Epoch: s}) }

// RecordDecision records an RL controller decision; install it as the
// controller's DecisionHook.
func (r *Recorder) RecordDecision(d rl.DecisionSample) {
	r.push(Entry{Kind: EntryDecision, Decision: d})
}

// Attach installs the recorder on a network's event and epoch hooks,
// replacing any hooks already present.
func (r *Recorder) Attach(n *noc.Network) {
	n.SetEventHook(r.RecordEvent)
	n.SetEpochHook(r.RecordEpoch)
}

// Len returns how many entries are currently held (≤ capacity).
func (r *Recorder) Len() int { return len(r.ring) }

// Total returns how many entries were ever recorded, including those the
// ring has since overwritten.
func (r *Recorder) Total() uint64 { return r.total }

// Tail returns up to k most recent entries, oldest first. k <= 0 means
// everything held.
func (r *Recorder) Tail(k int) []Entry {
	n := len(r.ring)
	if n == 0 {
		return nil
	}
	if k <= 0 || k > n {
		k = n
	}
	out := make([]Entry, 0, k)
	start := r.next - k
	if len(r.ring) < cap(r.ring) {
		start = n - k
	}
	for i := 0; i < k; i++ {
		j := start + i
		if j < 0 {
			j += cap(r.ring)
		} else if j >= cap(r.ring) {
			j -= cap(r.ring)
		}
		out = append(out, r.ring[j])
	}
	return out
}

// TailLines renders Tail(k) one formatted line per entry, prefixed with a
// header noting how much history the ring dropped.
func (r *Recorder) TailLines(k int) []string {
	tail := r.Tail(k)
	if len(tail) == 0 {
		return nil
	}
	out := make([]string, 0, len(tail)+1)
	if dropped := r.total - uint64(len(tail)); dropped > 0 {
		out = append(out, fmt.Sprintf("… %d earlier entries dropped by the flight recorder", dropped))
	}
	for _, e := range tail {
		out = append(out, e.String())
	}
	return out
}

// Reset empties the ring but keeps its capacity.
func (r *Recorder) Reset() {
	r.ring = r.ring[:0]
	r.next = 0
	r.total = 0
}
