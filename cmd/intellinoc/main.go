// Command intellinoc runs a single NoC simulation: one technique, one
// workload, full metrics to stdout.
//
// Examples:
//
//	intellinoc -tech IntelliNoC -benchmark canneal -packets 60000
//	intellinoc -tech SECDED -pattern uniform -rate 0.1 -packets 20000
//	intellinoc -tech CP -trace trace.bin
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"intellinoc"
	"intellinoc/internal/experiments"
	"intellinoc/internal/telemetry"
	"intellinoc/internal/traffic"
)

func main() {
	var (
		tech          = flag.String("tech", "IntelliNoC", "technique: SECDED, EB, CP, CPD, IntelliNoC, IntelliNoCBuf")
		benchmark     = flag.String("benchmark", "", "PARSEC benchmark workload model")
		pattern       = flag.String("pattern", "", "synthetic pattern: uniform, transpose, bitcomplement, bitreverse, shuffle, tornado, neighbor, hotspot")
		traceFile     = flag.String("trace", "", "replay a recorded trace file")
		rate          = flag.Float64("rate", 0.1, "synthetic injection rate (flits/node/cycle)")
		packets       = flag.Int("packets", 20000, "workload size in packets")
		width         = flag.Int("width", 8, "mesh width")
		height        = flag.Int("height", 8, "mesh height")
		topology      = flag.String("topology", "", "fabric family: mesh (default), torus, chiplet[:WxH], routerless")
		timestep      = flag.Int("timestep", 1000, "controller time step (cycles)")
		errRate       = flag.Float64("error-rate", 0, "override base bit error rate (0 = default 4e-5)")
		forced        = flag.Float64("forced-error-rate", 0, "inject at exactly this rate, ignoring temperature")
		seed          = flag.Int64("seed", 1, "PRNG seed")
		pretrain      = flag.Int("pretrain", 2, "RL pre-training epochs on blackscholes (0 = train online)")
		verify        = flag.Bool("verify-payloads", false, "carry real payload bytes through the bit-exact ECC codecs")
		openLoop      = flag.Bool("open-loop", false, "replay the workload open-loop (default is a Netrace-style dependency window of 1)")
		savePol       = flag.String("save-policy", "", "write the (pre-)trained policy to this file")
		loadPol       = flag.String("load-policy", "", "load a policy saved earlier instead of pre-training")
		policyZoo     = flag.String("policy-zoo", "", "policy zoo directory: reuse pre-trained Q-tables across invocations, keyed by pre-training-spec digest")
		warmStart     = flag.Bool("warm-start", false, "seed pre-training from the nearest compatible policy-zoo entry (requires -policy-zoo)")
		perRouterFlag = flag.Bool("per-router", false, "print the per-router summary table")
		heatmap       = flag.Bool("heatmap", false, "print the die temperature grid")
		chromeTrace   = flag.String("chrome-trace", "", "write a Chrome trace-event JSON timeline of the run to this file (load in Perfetto or chrome://tracing)")
		traceFlits    = flag.Bool("trace-flits", false, "include per-flit instants in -chrome-trace output (large)")
		shards        = flag.Int("shards", 0, "step the mesh with this many parallel shards (bit-identical results; 0 = sequential)")
		cpuprofile    = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile    = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // flush garbage so the profile shows live steady state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}()
	}

	technique, err := intellinoc.ParseTechnique(*tech)
	if err != nil {
		fatal(err)
	}
	sim := intellinoc.SimConfig{
		Width: *width, Height: *height, Topology: *topology, TimeStepCycles: *timestep,
		BaseErrorRate: *errRate, ForcedErrorRate: *forced,
		Seed: *seed, VerifyPayloads: *verify,
		Shards: *shards, // bit-identical at any value; also shards pre-training
	}
	if *openLoop {
		sim.DependencyWindow = -1
	}

	gen, desc, err := buildWorkload(*benchmark, *pattern, *traceFile, *rate, *packets, sim)
	if err != nil {
		fatal(err)
	}

	var policy *intellinoc.Policy
	switch {
	case *loadPol != "":
		f, err := os.Open(*loadPol)
		if err != nil {
			fatal(err)
		}
		policy, err = intellinoc.LoadPolicy(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded policy %s: %d agents, max Q-table %d entries\n",
			*loadPol, policy.Routers(), policy.MaxTableSize())
	case technique.RLControlled() && *pretrain > 0:
		spec := experiments.PolicySpec{Sim: sim, Epochs: *pretrain, PacketsPerEpoch: *packets}
		if technique != intellinoc.TechIntelliNoC {
			// "" selects IntelliNoC; naming it explicitly would fork the
			// digest away from every zoo entry the suite writes.
			spec.Tech = technique.String()
		}
		if *warmStart {
			if *policyZoo == "" {
				fatal(errors.New("-warm-start requires -policy-zoo"))
			}
			spec.WarmStart = experiments.WarmStartNearest
		}
		var zoo *intellinoc.PolicyStore
		if *policyZoo != "" {
			if zoo, err = intellinoc.NewPolicyStore(*policyZoo); err != nil {
				fatal(err)
			}
		}
		store := experiments.NewZooPolicyStore(zoo)
		fmt.Printf("pre-training %s policy on blackscholes (%d epochs)...\n", technique, *pretrain)
		policy, err = store.Get(spec)
		if err != nil {
			fatal(err)
		}
		switch stats := store.Stats(); {
		case stats.Hits > 0:
			fmt.Printf("loaded from policy zoo (digest %s): max Q-table %d entries\n",
				spec.Digest(), policy.MaxTableSize())
		case stats.WarmStarts > 0:
			fmt.Printf("pre-trained (warm-started from zoo neighbor): max Q-table %d entries\n",
				policy.MaxTableSize())
		default:
			fmt.Printf("pre-trained: max Q-table %d entries\n", policy.MaxTableSize())
		}
	}
	if *savePol != "" && policy != nil {
		f, err := os.Create(*savePol)
		if err != nil {
			fatal(err)
		}
		if err := policy.Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("saved policy to", *savePol)
	}

	fmt.Printf("running %s on %s (%dx%d mesh)...\n", technique, desc, *width, *height)
	// Ctrl-C cancels the run; the partial result accumulated so far is
	// still printed, flagged as partial.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := []intellinoc.Option{
		intellinoc.WithPolicy(policy),
		intellinoc.WithRouterSummaries(),
	}
	var tracer *telemetry.NetworkTracer
	if *chromeTrace != "" {
		tracer = telemetry.NewNetworkTracer(*width**height, telemetry.TracerOptions{
			FlitEvents: *traceFlits, TempCounters: true,
		})
		opts = append(opts, intellinoc.WithObserver(tracer))
	}
	out, err := intellinoc.Simulate(ctx, technique, sim, gen, opts...)
	res, perRouter := out.Result, out.Routers
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			fatal(err)
		}
		fmt.Printf("interrupted — partial results through cycle %d:\n", res.Cycles)
		perRouter = nil // summaries are only computed for completed runs
	}
	if tracer != nil {
		f, err := os.Create(*chromeTrace)
		if err != nil {
			fatal(err)
		}
		if err := tracer.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("wrote Chrome trace to", *chromeTrace)
	}

	execSeconds := float64(res.Cycles) / 2e9
	fmt.Printf(`
execution time        %d cycles (%.3g s @ 2 GHz)
packets delivered     %d (failed: %d)
flits delivered       %d
avg e2e latency       %.1f cycles (P95 %.0f, P99 %.0f)
static power          %.3f W
dynamic power         %.3f W
energy-efficiency     %.4g 1/(W*s)
retransmitted flits   %d hop-level, %d end-to-end
error histogram       clean=%d 1bit=%d 2bit=%d 3+bit=%d
gated router-cycles   %d (%.1f%% of router-time)
mode breakdown        %s
network MTTF          %.3g s (worst router %.3g s)
temperature           avg %.1f C, max %.1f C
`,
		res.Cycles, execSeconds,
		res.PacketsDelivered, res.PacketsFailed,
		res.FlitsDelivered,
		res.AvgLatency, res.P95Latency, res.P99Latency,
		res.StaticJoules/execSeconds,
		res.DynamicJoules/execSeconds,
		res.EnergyEfficiency(),
		res.HopRetransmits, res.E2ERetransmits,
		res.ErrorHistogram[0], res.ErrorHistogram[1], res.ErrorHistogram[2], res.ErrorHistogram[3],
		res.GatedCycles, 100*float64(res.GatedCycles)/float64(res.Cycles*int64(*width**height)),
		res.ModeBreakdown.String(),
		res.MTTFSeconds, res.WorstMTTFSeconds,
		res.AvgTempC, res.MaxTempC)

	if *perRouterFlag && len(perRouter) > 0 {
		fmt.Println("\nper-router summary:")
		fmt.Printf("%4s %3s %3s %8s %10s %10s %10s %8s\n",
			"id", "x", "y", "temp(C)", "dVth(mV)", "MTTF(s)", "energy(J)", "flits")
		for _, s := range perRouter {
			fmt.Printf("%4d %3d %3d %8.1f %10.3f %10.3g %10.3g %8d\n",
				s.ID, s.X, s.Y, s.TempC, s.DeltaVth*1e3, s.MTTFSeconds,
				s.StaticJoules+s.DynamicJoules, s.FlitsForwarded)
		}
	}
	if *heatmap && len(perRouter) > 0 {
		fmt.Println()
		fmt.Println("router temperatures (°C):")
		for y := 0; y < *height; y++ {
			for x := 0; x < *width; x++ {
				fmt.Printf("%6.1f", perRouter[y**width+x].TempC)
			}
			fmt.Println()
		}
	}
}

func buildWorkload(benchmark, pattern, traceFile string, rate float64, packets int, sim intellinoc.SimConfig) (intellinoc.Workload, string, error) {
	switch {
	case traceFile != "":
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		nodes, pkts, err := traffic.ReadTrace(f)
		if err != nil {
			return nil, "", err
		}
		if nodes != sim.Width*sim.Height {
			return nil, "", fmt.Errorf("trace is for %d nodes, mesh has %d", nodes, sim.Width*sim.Height)
		}
		return traffic.NewSliceGenerator(pkts), "trace " + traceFile, nil
	case benchmark != "":
		gen, err := intellinoc.ParsecWorkload(benchmark, sim, packets)
		return gen, "PARSEC " + benchmark, err
	case pattern != "":
		p, err := traffic.ParsePattern(pattern)
		if err != nil {
			return nil, "", err
		}
		gen, err := intellinoc.SyntheticWorkload(intellinoc.SyntheticConfig{
			Width: sim.Width, Height: sim.Height, Pattern: p,
			InjectionRate: rate, PacketFlits: 4, Packets: packets,
			HotspotFraction: 0.3, Seed: sim.Seed + 271,
		})
		return gen, "synthetic " + pattern, err
	default:
		return nil, "", fmt.Errorf("choose a workload: -benchmark, -pattern, or -trace")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "intellinoc:", err)
	os.Exit(1)
}
