package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"intellinoc/internal/core"
	"intellinoc/internal/noc"
	"intellinoc/internal/traffic"
)

// variant is one simulation of a single-network workload's pass.
type variant struct {
	key    string
	tech   core.Technique
	shards int
}

// simVariants run in this order in every pass. The sequential and the
// 2-shard SECDED runs must agree bit for bit, so a pass also checks the
// sharded stepper against the sequential one.
var simVariants = []variant{
	{key: "secded", tech: core.TechSECDED},
	{key: "secded_2shards", tech: core.TechSECDED, shards: 2},
	{key: "intellinoc", tech: core.TechIntelliNoC},
}

// simWorkload is a single-network workload: one mesh, one traffic model,
// the three variants.
type simWorkload struct {
	// sim spells out every default the run depends on, so the traced
	// path can build the same network without core's private defaults.
	sim    core.SimConfig
	newGen func() (traffic.Generator, error)
	// pretrainPackets > 0 pretrains IntelliNoC for one epoch of that
	// many blackscholes packets; 0 trains it online.
	pretrainPackets int
	// fixedCycles runs stop at sim.MaxCycles instead of draining the
	// workload, so every seed simulates the same span.
	fixedCycles bool
	setupReps   int
	policy      *core.Policy
}

// tableSim is the paper's Table 1 configuration with core's defaults
// written out.
func tableSim(width, height int, seed int64, depWindow int) core.SimConfig {
	return core.SimConfig{
		Width: width, Height: height, Seed: seed,
		TimeStepCycles: 1000, BaseErrorRate: 4e-5, MaxCycles: 20_000_000,
		DependencyWindow: depWindow, Alpha: 0.1, Gamma: 0.9, Epsilon: 0.05,
	}
}

func parsecWorkload(rc runConfig) *simWorkload {
	packets, pretrain := 8000, 4000
	if rc.tiny {
		packets, pretrain = 400, 300
	}
	sim := tableSim(8, 8, rc.seed, 1) // closed loop, one packet outstanding per core
	return &simWorkload{
		sim: sim,
		newGen: func() (traffic.Generator, error) {
			return core.ParsecWorkload("canneal", sim, packets)
		},
		pretrainPackets: pretrain,
		setupReps:       5,
	}
}

func uniformWorkload(rc runConfig) *simWorkload {
	width, cycles := 32, int64(500)
	if rc.tiny {
		width, cycles = 8, 400
	}
	sim := tableSim(width, width, rc.seed, -1) // open loop
	// A run stops after a fixed span rather than when a fixed packet
	// budget drains: how long the last few packets take to drain varies
	// with the seed far more than the per-cycle cost does.
	sim.MaxCycles = cycles
	// A 250-cycle control window (Table 1 has 1000) lets the short run
	// close two windows, so IntelliNoC does train online here.
	sim.TimeStepCycles = 250
	return &simWorkload{
		sim: sim,
		newGen: func() (traffic.Generator, error) {
			// 1.6/width flits/node/cycle is the BenchmarkNetworkCycleSharded
			// point, nominally 40% of the uniform bisection bound.
			return traffic.NewSynthetic(traffic.SyntheticConfig{
				Width: width, Height: width, Pattern: traffic.Uniform,
				InjectionRate: 1.6 / float64(width), PacketFlits: 4,
				Packets: 1 << 30, Seed: sim.Seed + 97,
			})
		},
		fixedCycles: true,
		setupReps:   9,
	}
}

func runParsec(ctx context.Context, rc runConfig) *report {
	return parsecWorkload(rc).run(ctx, rc)
}

func runUniform(ctx context.Context, rc runConfig) *report {
	return uniformWorkload(rc).run(ctx, rc)
}

// setup builds every input a pass needs — the generators, one network
// per variant and the pretrained policy — and returns the pretraining
// time in milliseconds.
func (s *simWorkload) setup() (pretrainMS float64, err error) {
	for _, v := range simVariants {
		gen, err := s.newGen()
		if err != nil {
			return 0, err
		}
		n, err := noc.New(netConfig(v.tech, s.sim, v.shards), gen, nil)
		if err != nil {
			return 0, err
		}
		n.Close()
	}
	if s.pretrainPackets == 0 {
		return 0, nil
	}
	start := time.Now()
	s.policy, err = core.PretrainTechnique(core.TechIntelliNoC, s.sim, 1, s.pretrainPackets, nil)
	return msSince(start), err
}

func (s *simWorkload) policyFor(v variant) *core.Policy {
	if v.tech == core.TechIntelliNoC {
		return s.policy
	}
	return nil
}

func (s *simWorkload) run(ctx context.Context, rc runConfig) *report {
	rep := newReport()
	var pretrainMS []float64
	setup, err := timeSetup(s.setupReps, func() error {
		ms, err := s.setup()
		pretrainMS = append(pretrainMS, ms)
		return err
	})
	if err != nil {
		rep.attempted++
		rep.fail("setup: %v", err)
		return rep
	}
	rep.e2e["setup_s"] = setup
	if s.pretrainPackets > 0 {
		rep.layer["core.pretrain_ms"] = median(pretrainMS)
	}

	agree := agreement{}
	rates := map[string][]float64{}
	var latencies, passCPU []float64
	var jobs int
	var flits, cycles uint64
	tr := &tracer{}
	var untracedCPU, tracedCPU time.Duration
	deadline := time.Now().Add(rc.budget)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		var seqCPU time.Duration
		for _, v := range simVariants {
			rep.attempted++
			res, wall, cpu, err := s.untraced(ctx, v)
			switch {
			case err != nil:
			case res.Deadlocked:
				err = fmt.Errorf("deadlocked at cycle %d", res.Cycles)
			case !s.fixedCycles && res.Cycles >= s.sim.MaxCycles:
				err = fmt.Errorf("not drained after %d cycles", res.Cycles)
			}
			if err != nil {
				rep.fail("%s: %v", v.key, err)
				return rep
			}
			if d := resultDigest(res); !agree.check(v.tech.String(), d) {
				rep.fail("%s pass %d: result digest %s differs from the first %s run's %s", v.key, pass, d, v.tech, agree[v.tech.String()])
			}
			untracedCPU += cpu
			if v.shards > 1 {
				// A sharded run's gain is parallelism, which only wall
				// time shows.
				rates[v.key] = append(rates[v.key], float64(res.Cycles)/wall.Seconds())
			} else {
				rates[v.key] = append(rates[v.key], float64(res.Cycles)/cpu.Seconds())
				seqCPU += cpu
				jobs++
			}
			if v.key == "secded" {
				// One variant only: SECDED and IntelliNoC runs differ in
				// cost, and a pooled sample's percentiles would fall
				// between the two clusters.
				latencies = append(latencies, float64(cpu.Nanoseconds())/1e6)
			}
			if pass == 0 {
				flits += res.FlitsDelivered
				cycles += uint64(res.Cycles)
			}
			if !rc.trace {
				continue
			}
			rep.attempted++
			tres, tcpu, err := s.traced(ctx, v, tr)
			if err != nil {
				rep.fail("%s traced: %v", v.key, err)
				return rep
			}
			tracedCPU += tcpu
			if d := resultDigest(tres); !agree.check(v.tech.String(), d) {
				rep.fail("%s traced pass %d: result digest %s differs from the untraced run's %s", v.key, pass, d, agree[v.tech.String()])
			}
		}
		passCPU = append(passCPU, seqCPU.Seconds())
		if rc.trace {
			tr.passes++
		}
	}

	// The sequential runs are measured in CPU time (see cpuTime): a pass
	// is the two sequential runs, and a job one run. suite_wall_s and
	// jobs_per_s restate those CPU times here; README.md says so.
	pass := median(passCPU)
	rep.e2e["baseline_cycles_per_s"] = median(rates["secded"])
	rep.e2e["intellinoc_cycles_per_s"] = median(rates["intellinoc"])
	rep.e2e["suite_wall_s"] = pass
	rep.e2e["jobs_per_s"] = float64(jobs) / float64(len(passCPU)) / pass
	rep.e2e["miss_p50_ms"] = percentile(latencies, 50)
	rep.e2e["miss_p90_ms"] = percentile(latencies, 90)
	rep.layer["noc.sharded_cycles_per_s"] = median(rates["secded_2shards"])
	rep.layer["noc.flits_per_cycle"] = float64(flits) / float64(cycles)
	if rc.trace {
		tr.fill(rep.layer)
		rep.layer["trace.overhead"] = tracedCPU.Seconds()/untracedCPU.Seconds() - 1
	}
	return rep
}

// untraced is the measured run: core.Simulate, as every caller runs it.
// It returns the run's wall and CPU time.
func (s *simWorkload) untraced(ctx context.Context, v variant) (noc.Result, time.Duration, time.Duration, error) {
	gen, err := s.newGen()
	if err != nil {
		return noc.Result{}, 0, 0, err
	}
	start, cpu := time.Now(), cpuTime()
	out, err := core.Simulate(ctx, v.tech, s.sim, gen, core.WithPolicy(s.policyFor(v)), core.WithShards(v.shards))
	return out.Result, time.Since(start), cpuTime() - cpu, err
}

// netConfig builds the network configuration core.Simulate builds for
// these settings. It mirrors core's private wiring; the traced run's
// bit-identity check against the untraced run catches any drift.
func netConfig(tech core.Technique, sim core.SimConfig, shards int) noc.Config {
	cfg := tech.NetworkConfig(sim.Width, sim.Height)
	cfg.TimeStepCycles = sim.TimeStepCycles
	cfg.BaseErrorRate = sim.BaseErrorRate
	cfg.Seed = sim.Seed
	cfg.DependencyWindow = max(sim.DependencyWindow, 0) // core spells open loop -1, noc 0
	cfg.Shards = shards
	return cfg
}

// emptyGen is a workload with no packets.
type emptyGen struct{}

func (emptyGen) Next() (traffic.Packet, bool) { return traffic.Packet{}, false }

// deployedController returns the controller core.Simulate deploys for
// tech — for a pretrained policy, its per-run clone. It is caught by
// Simulate's instrument hook on an empty workload, so Simulate returns
// before the first cycle and the controller is untouched.
func deployedController(ctx context.Context, tech core.Technique, sim core.SimConfig, policy *core.Policy) (noc.BufferController, error) {
	var ctrl noc.Controller
	_, err := core.Simulate(ctx, tech, sim, emptyGen{}, core.WithPolicy(policy),
		core.WithInstrument(func(_ *noc.Network, c noc.Controller) { ctrl = c }))
	if err != nil {
		return nil, err
	}
	bc, ok := ctrl.(noc.BufferController)
	if !ok {
		return nil, fmt.Errorf("%s deploys a %T, not an RL controller", tech, ctrl)
	}
	return bc, nil
}

// timedGen times the traffic layer: every Generator.Next call.
type timedGen struct {
	inner   traffic.Generator
	ns      int64
	packets int64
}

func (g *timedGen) Next() (traffic.Packet, bool) {
	start := time.Now()
	p, ok := g.inner.Next()
	g.ns += time.Since(start).Nanoseconds()
	if ok {
		g.packets++
	}
	return p, ok
}

// timedCtrl times the control layer: every mode and buffer decision.
type timedCtrl struct {
	inner     noc.BufferController
	ns        int64
	decisions int64
}

func (c *timedCtrl) NextMode(obs noc.Observation) noc.Mode {
	start := time.Now()
	m := c.inner.NextMode(obs)
	c.ns += time.Since(start).Nanoseconds()
	c.decisions++
	return m
}

func (c *timedCtrl) NextBufferAction(obs noc.Observation) int {
	start := time.Now()
	act := c.inner.NextBufferAction(obs)
	c.ns += time.Since(start).Nanoseconds()
	if act >= 0 {
		c.decisions++
	}
	return act
}

// stepStats splits the self time of Step calls — their wall time minus
// the wrapped traffic and controller calls inside them — by kind: a
// detailed step advances one cycle, a fast-forward jumps an idle span.
// Steps that cross a control-window boundary also run the window work
// (observations, thermal, aging, mode apply) and are kept apart.
type stepStats struct {
	detCycles, ffCycles int64
	detNs, ffNs         float64
	// plain steps cross no control boundary; window steps do.
	plainDetN, plainFFN, winDetN, winFFN     int64
	plainDetNs, plainFFNs, winDetNs, winFFNs float64
}

func (s *stepStats) add(self float64, cycles int64, window bool) {
	switch {
	case cycles == 1:
		s.detCycles++
		s.detNs += self
		if window {
			s.winDetN++
			s.winDetNs += self
		} else {
			s.plainDetN++
			s.plainDetNs += self
		}
	default:
		s.ffCycles += cycles
		s.ffNs += self
		if window {
			s.winFFN++
			s.winFFNs += self
		} else {
			s.plainFFN++
			s.plainFFNs += self
		}
	}
}

// windowExtra is the self time window steps spent beyond plain steps of
// the same kind, summed, and the number of window steps.
func (s *stepStats) windowExtra() (ns float64, n int64) {
	mean := func(sum float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	ns = s.winDetNs - float64(s.winDetN)*mean(s.plainDetNs, s.plainDetN) +
		s.winFFNs - float64(s.winFFN)*mean(s.plainFFNs, s.plainFFN)
	return ns, s.winDetN + s.winFFN
}

// tracer accumulates the per-layer numbers of a workload's traced runs.
type tracer struct {
	passes            int
	buildMS, newMS    []float64
	genNs, packets    int64
	ctrlNs, decisions int64
	seq, sharded      stepStats
	windowNs          float64
	windowSteps       int64
	mallocs           uint64
	allocCycles       int64
}

// traced runs v through the public seams of noc — Technique.NetworkConfig,
// noc.New and Step — with the generator and the controller wrapped, and
// returns the same Result core.Simulate would and the CPU time it took.
func (s *simWorkload) traced(ctx context.Context, v variant, tr *tracer) (noc.Result, time.Duration, error) {
	start := time.Now()
	inner, err := s.newGen()
	if err != nil {
		return noc.Result{}, 0, err
	}
	tr.buildMS = append(tr.buildMS, msSince(start))
	gen := &timedGen{inner: inner}
	var ctrl noc.Controller = noc.StaticController(noc.ModeSECDED)
	initial := noc.ModeSECDED
	var tc *timedCtrl
	if v.tech == core.TechIntelliNoC {
		inner, err := deployedController(ctx, v.tech, s.sim, s.policyFor(v))
		if err != nil {
			return noc.Result{}, 0, err
		}
		tc = &timedCtrl{inner: inner}
		ctrl, initial = tc, noc.ModeCRC
	}
	ctrlNs := func() int64 {
		if tc == nil {
			return 0
		}
		return tc.ns
	}

	cpu := cpuTime()
	start = time.Now()
	n, err := noc.New(netConfig(v.tech, s.sim, v.shards), gen, ctrl)
	if err != nil {
		return noc.Result{}, 0, err
	}
	defer n.Close()
	tr.newMS = append(tr.newMS, msSince(start))
	n.SetInitialMode(initial)

	var st stepStats
	window := int64(s.sim.TimeStepCycles)
	// Heap traffic is counted after the first control window (or half
	// of a shorter fixed span), once the free lists have filled.
	warm := min(window, s.sim.MaxCycles/2)
	sequential := v.shards < 2
	var before runtime.MemStats
	allocFrom := int64(-1)
	lastFlits, lastProgress := n.FlitsDelivered(), n.Cycle()
	for steps := 0; !n.Drained(); steps++ {
		c0 := n.Cycle()
		if c0 >= s.sim.MaxCycles {
			if s.fixedCycles {
				break
			}
			return noc.Result{}, 0, fmt.Errorf("not drained after %d cycles", c0)
		}
		if steps%256 == 0 {
			if err := ctx.Err(); err != nil {
				return noc.Result{}, 0, fmt.Errorf("canceled at cycle %d: %w", c0, err)
			}
		}
		if sequential && allocFrom < 0 && c0 >= warm {
			runtime.ReadMemStats(&before)
			allocFrom = c0
		}
		g0, k0 := gen.ns, ctrlNs()
		t0 := time.Now()
		n.Step()
		self := float64(time.Since(t0).Nanoseconds() - (gen.ns - g0) - (ctrlNs() - k0))
		c1 := n.Cycle()
		st.add(self, c1-c0, c1/window != c0/window)
		if f := n.FlitsDelivered(); f != lastFlits {
			lastFlits, lastProgress = f, c1
		} else if c1-lastProgress > 1_000_000 {
			return noc.Result{}, 0, fmt.Errorf("stalled: no flit delivered for %d cycles at cycle %d", c1-lastProgress, c1)
		}
	}
	if allocFrom >= 0 {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		tr.mallocs += after.Mallocs - before.Mallocs
		tr.allocCycles += n.Cycle() - allocFrom
	}
	res := n.Snapshot()
	cpu = cpuTime() - cpu

	tr.genNs += gen.ns
	tr.packets += gen.packets
	if tc != nil {
		tr.ctrlNs += tc.ns
		tr.decisions += tc.decisions
	}
	if sequential {
		tr.seq.merge(&st)
		ns, k := st.windowExtra()
		tr.windowNs += ns
		tr.windowSteps += k
	} else {
		tr.sharded.merge(&st)
	}
	return res, cpu, nil
}

func (s *stepStats) merge(o *stepStats) {
	s.detCycles += o.detCycles
	s.ffCycles += o.ffCycles
	s.detNs += o.detNs
	s.ffNs += o.ffNs
}

// fill writes the traced per-layer metrics. Counts are per pass, so they
// repeat exactly for a seed.
func (tr *tracer) fill(m map[string]float64) {
	passes := float64(max(tr.passes, 1))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["traffic.build_ms"] = median(tr.buildMS)
	m["traffic.next_ns_per_packet"] = ratio(float64(tr.genNs), float64(tr.packets))
	m["traffic.packets"] = float64(tr.packets) / passes
	m["noc.new_ms"] = median(tr.newMS)
	det := float64(tr.seq.detCycles + tr.sharded.detCycles)
	ff := float64(tr.seq.ffCycles + tr.sharded.ffCycles)
	m["noc.detailed_cycles"] = det / passes
	m["noc.ff_cycles"] = ff / passes
	m["noc.ff_cycle_share"] = ratio(ff, det+ff)
	m["noc.step_ns_per_cycle"] = ratio(tr.seq.detNs, float64(tr.seq.detCycles))
	m["noc.ff_ns_per_cycle"] = ratio(tr.seq.ffNs, float64(tr.seq.ffCycles))
	m["noc.window_ns"] = ratio(tr.windowNs, float64(tr.windowSteps))
	m["noc.sharded_step_ns_per_cycle"] = ratio(tr.sharded.detNs, float64(tr.sharded.detCycles))
	m["noc.allocs_per_cycle"] = ratio(float64(tr.mallocs), float64(tr.allocCycles))
	m["rl.decide_ns"] = ratio(float64(tr.ctrlNs), float64(tr.decisions))
	m["rl.decisions"] = float64(tr.decisions) / passes
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
