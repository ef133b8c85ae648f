package noc

import (
	"intellinoc/internal/power"
	"intellinoc/internal/stats"
)

// The end of each tick (see Network.step): the thermal step and the RL
// control step at their interval boundaries, and the mode and buffer
// actions the controller returns.

// thermalStep integrates the thermal grid and the aging model over the
// elapsed interval.
func (n *Network) thermalStep() {
	dt := float64(n.cfg.ThermalIntervalCycles) / power.ClockHz
	powers := n.powersBuf
	for i, m := range n.meters {
		n.flushStatic(n.routers[i])
		powers[i] = (m.TotalJoules() - n.lastTJ[i]) / dt
		n.lastTJ[i] = m.TotalJoules()
	}
	n.grid.Step(powers, dt)
	for i := range n.routers {
		temp := n.grid.Temp(i)
		activity := float64(n.thermAct[i]) / float64(n.cfg.ThermalIntervalCycles) / NumPorts
		if activity > 1 {
			activity = 1
		}
		n.wear[i].Accrue(n.aging, dt, temp, activity, !n.rGated[i])
		n.thermAct[i] = 0
		n.tempSum += temp
		n.tempSamples++
	}
	// Temperatures moved: refresh the cached per-router bit-error rates.
	n.refreshLinkRates()
}

// controlStep closes one RL time step: builds each router's observation,
// asks the controller for the next mode, and resets the window counters.
func (n *Network) controlStep() {
	win := uint64(n.cfg.TimeStepCycles)
	winSeconds := float64(win) / power.ClockHz
	n.winEnd = n.cycle + int64(win)
	for i, r := range n.routers {
		n.flushStatic(r)
		obs := Observation{Router: i, Cycle: n.cycle}
		for p := 0; p < NumPorts; p++ {
			if ip := r.in[p]; ip != nil {
				obs.Features[p] = float64(ip.winFlitsIn) / float64(win)
				capacity := float64(n.cfg.VCs * n.cfg.BufDepth)
				obs.Features[5+p] = float64(n.winOcc[i*NumPorts+p]) / float64(win) / capacity
			}
			if op := r.out[p]; op != nil {
				obs.Features[10+p] = float64(op.winFlitsOut) / float64(win)
			}
		}
		obs.Features[15] = n.grid.Temp(i)
		if r.winEjectLatency.Count > 0 {
			r.lastAvgLatency = r.winEjectLatency.Mean()
		}
		if r.lastAvgLatency < 1 {
			r.lastAvgLatency = 1
		}
		obs.AvgLatencyCycles = r.lastAvgLatency
		obs.PowerMilliwatts = (n.meters[i].TotalJoules() - r.winEnergyStart) / winSeconds * 1e3
		obs.AgingFactor = n.aging.AgingFactor(n.wear[i])
		obs.ErrorHistogram = r.winErrHist
		obs.WinHopRetransmits = r.winHopRetrans

		n.modeBreakdown.AddCycles(int(r.mode), win)
		windowMode := r.mode
		mode := n.ctrl.NextMode(obs)
		if n.cfg.RLTable {
			n.meters[i].RLStep()
		}
		n.applyMode(r, mode)
		if n.bufCtrl != nil {
			if act := n.bufCtrl.NextBufferAction(obs); act >= 0 {
				n.applyBufferAction(r, act)
				if n.cfg.RLTable {
					// The buffer agent is a second Q-table lookup+update
					// per window (RACE runs its own table).
					n.meters[i].RLStep()
				}
			}
		}
		if n.epochHook != nil {
			_, _, dVth := n.aging.DeltaVth(n.wear[i])
			n.epochHook(EpochSample{
				Cycle:            n.cycle,
				Router:           i,
				WindowMode:       windowMode,
				NextMode:         mode,
				Gated:            n.rGated[i],
				TempC:            obs.Features[15],
				DeltaVth:         dVth,
				AgingFactor:      obs.AgingFactor,
				AvgLatencyCycles: obs.AvgLatencyCycles,
				PowerMilliwatts:  obs.PowerMilliwatts,
				ErrHist:          r.winErrHist,
				HopRetransmits:   r.winHopRetrans,
			})
		}

		// Reset the window.
		r.winEjectLatency = stats.Summary{}
		r.winErrHist = [4]uint64{}
		r.winHopRetrans = 0
		r.winEnergyStart = n.meters[i].TotalJoules()
		for p := 0; p < NumPorts; p++ {
			// Prepay the next window for the occupancy carried into it.
			n.winOcc[i*NumPorts+p] = uint64(n.portOcc[i*NumPorts+p]) * win
			if r.in[p] != nil {
				r.in[p].winFlitsIn = 0
			}
			if op := r.out[p]; op != nil {
				op.winFlitsOut = 0
			}
		}
		base := n.vcIndex(i, 0, 0)
		clear(n.winVCFlits[base : base+NumPorts*n.cfg.VCs])
	}
}

// applyBufferAction repartitions every credited output port of r per the
// chosen BufAction*: each VC's capacity becomes BufDepth (its private
// router-buffer floor, never reassigned) plus its allotted share of the
// ChannelStages, and outstanding credits shift by the capacity delta.
// Credits may go transiently negative when a VC's share shrinks below its
// in-flight storage — every consumption check is `credits > 0`, so that
// only pauses the VC until enough flits drain. Runs on the coordinator at
// the time-step boundary (controlStep), so it is shard-safe.
func (n *Network) applyBufferAction(r *Router, act int) {
	vcs := n.cfg.VCs
	stages := n.cfg.ChannelStages
	for p := 0; p < NumPorts; p++ {
		op := r.out[p]
		if op == nil || op.ch == nil {
			continue // ejection sinks are uncredited
		}
		base := n.vcIndex(r.id, p, 0)
		demand := n.winVCFlits[base : base+vcs]
		credits, share := n.credits[base:base+vcs], n.share[base:base+vcs]
		var alloc [maxVCs]int
		switch act {
		case BufActionDemand:
			apportionByDemand(alloc[:vcs], demand, stages)
		case BufActionConcentrate:
			best := 0
			for v := 1; v < vcs; v++ {
				if demand[v] > demand[best] {
					best = v
				}
			}
			alloc[best] = stages
		case BufActionReserve:
			active := 0
			for v := 0; v < vcs; v++ {
				if demand[v] > 0 {
					active++
				}
			}
			if active == 0 {
				evenSplit(alloc[:vcs], stages)
			} else {
				i := 0
				for v := 0; v < vcs; v++ {
					if demand[v] > 0 {
						alloc[v] = stages / active
						if i < stages%active {
							alloc[v]++
						}
						i++
					}
				}
			}
		default: // BufActionEven and anything unrecognized
			evenSplit(alloc[:vcs], stages)
		}
		for v := 0; v < vcs; v++ {
			newShare := int32(n.cfg.BufDepth + alloc[v])
			credits[v] += newShare - share[v]
			share[v] = newShare
		}
	}
}

// evenSplit is the static vcCredits stage distribution: stages/vcs each,
// remainder one apiece to the lowest-numbered VCs.
func evenSplit(alloc []int, stages int) {
	vcs := len(alloc)
	for v := range alloc {
		alloc[v] = stages / vcs
		if v < stages%vcs {
			alloc[v]++
		}
	}
}

// apportionByDemand distributes stages proportionally to each VC's window
// flit count by the largest-remainder method, ties to lower VCs. Zero
// total demand falls back to the even split.
func apportionByDemand(alloc []int, demand []uint64, stages int) {
	var total uint64
	for _, d := range demand {
		total += d
	}
	if total == 0 {
		evenSplit(alloc, stages)
		return
	}
	assigned := 0
	var rem [maxVCs]uint64 // scaled remainders, comparable exactly in integers
	for v := range alloc {
		q := uint64(stages) * demand[v]
		alloc[v] = int(q / total)
		rem[v] = q % total
		assigned += alloc[v]
	}
	for assigned < stages {
		best := -1
		for v := range alloc {
			if best < 0 || rem[v] > rem[best] {
				best = v
			}
		}
		alloc[best]++
		rem[best] = 0
		assigned++
	}
}

// applyMode switches a router's operation mode, handling the power-state
// transitions in and out of mode 0.
func (n *Network) applyMode(r *Router, mode Mode) {
	if mode == ModeBypass && !n.cfg.Bypass {
		mode = ModeCRC // bypass hardware absent: degrade gracefully
	}
	prev := r.mode
	r.mode = mode
	n.rBypassMode[r.id] = mode == ModeBypass
	if prev != mode {
		n.emit(Event{Cycle: n.cycle, Kind: EvModeChange, Router: r.id, Mode: mode})
	}
	if prev == ModeBypass && mode != ModeBypass && n.rGated[r.id] && n.triggerWake(r) {
		n.emit(Event{Cycle: n.cycle, Kind: EvWake, Router: r.id})
	}
	n.flushStatic(r)
}

// SetInitialMode puts every router in the given mode before the first
// time step (the paper initializes all routers to mode 1).
func (n *Network) SetInitialMode(mode Mode) {
	for _, r := range n.routers {
		n.applyMode(r, mode)
	}
}
