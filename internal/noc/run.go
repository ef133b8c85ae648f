package noc

import (
	"context"
	"fmt"
	"math"

	"intellinoc/internal/power"
	"intellinoc/internal/stats"
)

// Running a network until it drains, and the results it reports.

// Drained reports whether the workload is fully delivered.
func (n *Network) Drained() bool {
	return n.gen.Exhausted() && n.outstanding == 0
}

// Result aggregates a finished run.
type Result struct {
	Cycles           int64
	PacketsDelivered uint64
	PacketsFailed    uint64
	FlitsDelivered   uint64
	AvgLatency       float64
	P95Latency       float64
	P99Latency       float64
	StaticJoules     float64
	DynamicJoules    float64
	HopRetransmits   uint64
	E2ERetransmits   uint64
	ModeBreakdown    stats.ModeBreakdown
	GatedCycles      uint64
	// ControlFaults counts parity-detected routing-table/BST upsets
	// (future-work extension; see Config.ControlFaultRate).
	ControlFaults  uint64
	ErrorHistogram [4]uint64
	// MTTFSeconds is the network's extrapolated mean time to failure,
	// combining per-router FITs as a series system (failures-in-time
	// add), per the Shin et al. architectural reliability framework the
	// paper uses for its FIT/MTTF numbers.
	MTTFSeconds float64
	// WorstMTTFSeconds is the single most-stressed router's MTTF.
	WorstMTTFSeconds float64
	AvgTempC         float64
	MaxTempC         float64
	Deadlocked       bool
}

// TotalJoules returns the run's total energy.
func (r Result) TotalJoules() float64 { return r.StaticJoules + r.DynamicJoules }

// EnergyEfficiency implements the paper's eq. 8:
// [(Pstatic+Pdynamic)·Texec]^-1, in 1/(W·s).
func (r Result) EnergyEfficiency() float64 {
	if r.Cycles == 0 {
		return 0
	}
	seconds := float64(r.Cycles) / power.ClockHz
	totalPower := r.TotalJoules() / seconds
	if totalPower <= 0 {
		return math.Inf(1)
	}
	return 1 / (totalPower * seconds)
}

// RetransmittedFlits returns hop-level plus end-to-end retransmissions.
func (r Result) RetransmittedFlits() uint64 { return r.HopRetransmits + r.E2ERetransmits }

// RunUntilDrained steps the network until the workload completes or
// maxCycles elapse, then returns the aggregated result.
func (n *Network) RunUntilDrained(maxCycles int64) (Result, error) {
	return n.RunContext(nil, maxCycles)
}

// RunContext is RunUntilDrained with cooperative cancellation: the context
// is polled every few steps, and on cancellation the partial result
// accumulated so far is returned together with an error wrapping
// ctx.Err(). A nil ctx (what RunUntilDrained passes) skips the polling
// entirely, so the uncancellable path costs nothing extra. Cancellation
// never perturbs a run that completes: the simulation state advances
// exactly as without a context until the moment the run stops.
func (n *Network) RunContext(ctx context.Context, maxCycles int64) (Result, error) {
	const stallLimit = 100_000
	const ctxPollInterval = 256 // steps between ctx.Err() polls
	poll := 0
	for !n.Drained() && n.cycle < maxCycles {
		if ctx != nil {
			if poll++; poll >= ctxPollInterval {
				poll = 0
				if err := ctx.Err(); err != nil {
					return n.Snapshot(), fmt.Errorf("noc: run canceled at cycle %d: %w", n.cycle, err)
				}
			}
		}
		n.step(maxCycles)
		// The stall clock runs only while packets are outstanding; an idle
		// gap in the workload is not a stall (admitStep restarts it).
		if n.outstanding > 0 && n.cycle-n.lastProgress > stallLimit {
			res := n.Snapshot()
			res.Deadlocked = true
			return res, fmt.Errorf("noc: no progress for %d cycles at cycle %d (%d packets outstanding)",
				stallLimit, n.cycle, n.outstanding)
		}
	}
	return n.Snapshot(), nil
}

// Snapshot returns the metrics accumulated so far. It changes no state,
// so calling it mid-run leaves the run bit-identical.
func (n *Network) Snapshot() Result {
	var res Result
	res.Cycles = n.cycle
	res.PacketsDelivered = n.pktsDelivered
	res.PacketsFailed = n.pktsFailed
	res.FlitsDelivered = n.flitsDelivered
	res.AvgLatency = n.latency.Mean()
	res.P95Latency = n.latency.Percentile(95)
	res.P99Latency = n.latency.Percentile(99)
	for i, m := range n.meters {
		res.StaticJoules += n.staticJoules(i)
		res.DynamicJoules += m.DynamicJoules
	}
	res.HopRetransmits = n.hopRetransmits
	res.E2ERetransmits = n.e2eRetransmits
	res.ModeBreakdown = n.modeBreakdown
	res.GatedCycles = n.gatedCycles
	res.ControlFaults = n.controlFaults
	res.ErrorHistogram = n.errHist
	worst := math.Inf(1)
	fitSum := 0.0
	for i := range n.wear {
		m := n.aging.MTTFSeconds(n.wear[i])
		if m < worst {
			worst = m
		}
		if !math.IsInf(m, 1) && m > 0 {
			fitSum += 1 / m
		}
	}
	res.WorstMTTFSeconds = worst
	if fitSum > 0 {
		res.MTTFSeconds = 1 / fitSum
	} else {
		res.MTTFSeconds = math.Inf(1)
	}
	if n.tempSamples > 0 {
		res.AvgTempC = n.tempSum / float64(n.tempSamples)
	}
	res.MaxTempC = n.grid.Max()
	return res
}
