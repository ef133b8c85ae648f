package diffcheck

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"intellinoc/internal/core"
	"intellinoc/internal/experiments"
	"intellinoc/internal/harness"
	"intellinoc/internal/noc"
	"intellinoc/internal/telemetry"
)

// buildFailure wraps a network-construction error as a finding; the
// scenario sampler only emits Validate-clean configurations, so any
// build failure is a real regression.
func buildFailure(check string, sc Scenario, err error) *Finding {
	return &Finding{Check: check, Seed: sc.Seed, Scenario: sc.String(),
		Cycle: -1, Router: -1, Field: "build", B: err.Error()}
}

// lockstep drives two supposedly bit-equivalent networks together: a
// steps freely (its idle fast-forward may jump), b is stepped cycle by
// cycle to the same point, and their fingerprints are compared at every
// boundary. The first mismatch is localized to a cycle, router, and
// field; if the runs stay identical the final drained Results are
// cross-checked too. A flight recorder rides side a throughout, so every
// finding carries the event/epoch tail leading into the divergence.
func lockstep(check string, sc Scenario, a, b *noc.Network) *Finding {
	rec := telemetry.NewRecorder(telemetry.DefaultCapacity)
	rec.Attach(a)
	withTail := func(f *Finding) *Finding {
		f.Tail = rec.TailLines(0)
		return f
	}
	for !a.Drained() && a.Cycle() < sc.MaxCycles {
		a.Step()
		b.StepUntil(a.Cycle())
		if a.Fingerprint() != b.Fingerprint() {
			f := localize(check, sc, a, b)
			return withTail(&f)
		}
	}
	b.StepUntil(a.Cycle())
	if a.Fingerprint() != b.Fingerprint() {
		f := localize(check, sc, a, b)
		return withTail(&f)
	}
	if !a.Drained() {
		return withTail(&Finding{Check: check, Seed: sc.Seed, Scenario: sc.String(),
			Cycle: a.Cycle(), Router: -1, Field: "drained",
			A: "stalled", B: "stalled"})
	}
	if field, av, bv, equal := diffResult(a.Snapshot(), b.Snapshot()); !equal {
		return withTail(&Finding{Check: check, Seed: sc.Seed, Scenario: sc.String(),
			Cycle: a.Cycle(), Router: -1, Field: "Result." + field, A: av, B: bv})
	}
	return nil
}

// checkFF verifies the exactness claim on Config.DisableIdleFastForward:
// the event-jumping fast path and the cycle-by-cycle path must agree on
// every state word at every step boundary.
func checkFF(seed int64) *Finding {
	sc := ScenarioForSeed(seed)
	a, err := sc.network(nil)
	if err != nil {
		return buildFailure("ff", sc, err)
	}
	b, err := sc.network(func(c *noc.Config) { c.DisableIdleFastForward = true })
	if err != nil {
		return buildFailure("ff", sc, err)
	}
	return lockstep("ff", sc, a, b)
}

// checkShards verifies the shard pool's headline claim: a mesh stepped
// by the worker pool (noc.Config.Shards > 1) must match the one-shard
// tick on every fingerprinted state word at every step boundary — commit ordering, PRNG draw order, and FP accumulation
// included. The shard count is derived from the seed so the campaign
// covers uneven router/shard splits as well as the CI-gated count of 4.
func checkShards(seed int64) *Finding {
	sc := ScenarioForSeed(seed)
	a, err := sc.network(nil)
	if err != nil {
		return buildFailure("shards", sc, err)
	}
	b, err := sc.network(func(c *noc.Config) { c.Shards = 2 + int(uint64(seed)%3) })
	if err != nil {
		return buildFailure("shards", sc, err)
	}
	defer b.Close()
	return lockstep("shards", sc, a, b)
}

// lockstepCoarse is lockstep at checkpoint granularity: fingerprints are
// compared every interval cycles instead of at every step boundary, which
// is what makes bit-identity affordable to verify on 32×32 and 64×64
// meshes (a full fingerprint walks every VC buffer of every router). The
// final drained Results are still cross-checked exactly.
func lockstepCoarse(check string, sc Scenario, a, b *noc.Network, interval int64) *Finding {
	rec := telemetry.NewRecorder(telemetry.DefaultCapacity)
	rec.Attach(a)
	withTail := func(f *Finding) *Finding {
		f.Tail = rec.TailLines(0)
		return f
	}
	for !a.Drained() && a.Cycle() < sc.MaxCycles {
		a.StepUntil(a.Cycle() + interval)
		b.StepUntil(a.Cycle())
		if a.Fingerprint() != b.Fingerprint() {
			f := localize(check, sc, a, b)
			return withTail(&f)
		}
	}
	if !a.Drained() {
		return withTail(&Finding{Check: check, Seed: sc.Seed, Scenario: sc.String(),
			Cycle: a.Cycle(), Router: -1, Field: "drained",
			A: "stalled", B: "stalled"})
	}
	if field, av, bv, equal := diffResult(a.Snapshot(), b.Snapshot()); !equal {
		return withTail(&Finding{Check: check, Seed: sc.Seed, Scenario: sc.String(),
			Cycle: a.Cycle(), Router: -1, Field: "Result." + field, A: av, B: bv})
	}
	return nil
}

// checkShardsBig is checkShards at the scales the sharded stepper exists
// for: 32×32 and 64×64 meshes, shard counts up to 16, with half the seed
// space forcing ControlFaultRate > 0 so fault draws and delayed routes
// are in the mix (see BigScenarioForSeed for why). Comparison runs at
// checkpoint granularity (lockstepCoarse) to keep a campaign seed to a
// few seconds.
func checkShardsBig(seed int64) *Finding {
	sc := BigScenarioForSeed(seed)
	shards := []int{2, 4, 8, 16}[int(uint64(seed)%4)]
	a, err := sc.network(nil)
	if err != nil {
		return buildFailure("shardsbig", sc, err)
	}
	b, err := sc.network(func(c *noc.Config) { c.Shards = shards })
	if err != nil {
		return buildFailure("shardsbig", sc, err)
	}
	defer b.Close()
	return lockstepCoarse("shardsbig", sc, a, b, 512)
}

// checkVerify verifies the DESIGN §5 contract on Config.VerifyPayloads:
// carrying real payload bytes through the bit-exact codecs must not
// change any fault outcome — only the payload bytes themselves (which
// the fingerprint deliberately excludes) may differ. The codec
// cross-check must also never disagree with the capability table.
func checkVerify(seed int64) *Finding {
	sc := ScenarioForSeed(seed)
	a, err := sc.network(nil)
	if err != nil {
		return buildFailure("verify", sc, err)
	}
	b, err := sc.network(func(c *noc.Config) { c.VerifyPayloads = true })
	if err != nil {
		return buildFailure("verify", sc, err)
	}
	if f := lockstep("verify", sc, a, b); f != nil {
		return f
	}
	if d := b.CodecDisagreements(); d > 0 {
		return &Finding{Check: "verify", Seed: sc.Seed, Scenario: sc.String(),
			Cycle: b.Cycle(), Router: -1, Field: "codecDisagreements",
			A: "0", B: fmt.Sprintf("%d", d)}
	}
	return nil
}

// checkTopoFF is checkFF over the topology-family sampler: the idle
// fast-forward exactness claim must hold on torus datelines, chiplet
// interposer hops, and routerless loops, not just the mesh.
func checkTopoFF(seed int64) *Finding {
	sc := TopoScenarioForSeed(seed)
	a, err := sc.network(nil)
	if err != nil {
		return buildFailure("topoff", sc, err)
	}
	b, err := sc.network(func(c *noc.Config) { c.DisableIdleFastForward = true })
	if err != nil {
		return buildFailure("topoff", sc, err)
	}
	return lockstep("topoff", sc, a, b)
}

// checkTopoShards verifies the sharded stepper's bit-identity on every
// topology family. The shard partition is a contiguous router-id split,
// so torus wraparound links, chiplet interposer rows, and routerless
// loop segments all cross shard boundaries here.
func checkTopoShards(seed int64) *Finding {
	sc := TopoScenarioForSeed(seed)
	a, err := sc.network(nil)
	if err != nil {
		return buildFailure("toposhards", sc, err)
	}
	b, err := sc.network(func(c *noc.Config) { c.Shards = 2 + int(uint64(seed)%3) })
	if err != nil {
		return buildFailure("toposhards", sc, err)
	}
	defer b.Close()
	return lockstep("toposhards", sc, a, b)
}

// checkTopoVerify is checkVerify over the topology-family sampler:
// payload-exact codecs must not perturb fault outcomes on any fabric.
func checkTopoVerify(seed int64) *Finding {
	sc := TopoScenarioForSeed(seed)
	a, err := sc.network(nil)
	if err != nil {
		return buildFailure("topoverify", sc, err)
	}
	b, err := sc.network(func(c *noc.Config) { c.VerifyPayloads = true })
	if err != nil {
		return buildFailure("topoverify", sc, err)
	}
	if f := lockstep("topoverify", sc, a, b); f != nil {
		return f
	}
	if d := b.CodecDisagreements(); d > 0 {
		return &Finding{Check: "topoverify", Seed: sc.Seed, Scenario: sc.String(),
			Cycle: b.Cycle(), Router: -1, Field: "codecDisagreements",
			A: "0", B: fmt.Sprintf("%d", d)}
	}
	return nil
}

// checkSnapshot verifies policy snapshot-resume: pre-training a policy,
// round-tripping it through Save/LoadPolicy, and deploying the loaded
// copy must reproduce the straight-through run bit for bit.
func checkSnapshot(seed int64) *Finding {
	fail := func(field string, err error) *Finding {
		return &Finding{Check: "snapshot", Seed: seed, Cycle: -1, Router: -1,
			Field: field, B: err.Error()}
	}
	sim := core.SimConfig{Width: 4, Height: 4, TimeStepCycles: 500, Seed: seed}
	policy, err := core.Pretrain(sim, 1, 120)
	if err != nil {
		return fail("pretrain", err)
	}

	runOnce := func(p *core.Policy) (noc.Result, error) {
		gen, err := core.ParsecWorkload("swaptions", sim, 200)
		if err != nil {
			return noc.Result{}, err
		}
		out, err := core.Simulate(nil, core.TechIntelliNoC, sim, gen, core.WithPolicy(p))
		return out.Result, err
	}

	resA, err := runOnce(policy)
	if err != nil {
		return fail("run-direct", err)
	}
	if resA.PacketsDelivered == 0 {
		return &Finding{Check: "snapshot", Seed: seed, Cycle: -1, Router: -1,
			Field: "vacuous", B: "straight-through run delivered no packets"}
	}

	var buf bytes.Buffer
	if err := policy.Save(&buf); err != nil {
		return fail("save", err)
	}
	loaded, err := core.LoadPolicy(&buf)
	if err != nil {
		return fail("load", err)
	}
	resB, err := runOnce(loaded)
	if err != nil {
		return fail("run-resumed", err)
	}

	if field, av, bv, equal := diffResult(resA, resB); !equal {
		return &Finding{Check: "snapshot", Seed: seed,
			Scenario: "pretrain(4x4,1,120) + swaptions/200 IntelliNoC, direct vs save/load round-trip",
			Cycle:    -1, Router: -1, Field: "Result." + field, A: av, B: bv}
	}
	return nil
}

// checkHarness verifies the harness determinism contract: a reduced
// experiment suite run at one worker and at several workers must produce
// byte-identical markdown and bit-identical per-job result payloads.
func checkHarness(seed int64) *Finding {
	fail := func(field string, err error) *Finding {
		return &Finding{Check: "harness", Seed: seed, Cycle: -1, Router: -1,
			Field: field, B: err.Error()}
	}
	dir, err := os.MkdirTemp("", "diffcheck-harness-")
	if err != nil {
		return fail("tempdir", err)
	}
	defer os.RemoveAll(dir)

	runSuite := func(workers int, path string) (md string, recs map[string]harness.Record, err error) {
		s, err := experiments.NewSuite(experiments.SuiteOptions{
			Sim:          core.SimConfig{Width: 4, Height: 4, TimeStepCycles: 500, Seed: seed},
			Packets:      300,
			Quick:        true,
			Only:         []string{"fig13"},
			Benchmarks:   []string{"swaptions", "ferret"},
			SweepBenches: []string{"swaptions"},
			Techniques:   []core.Technique{core.TechSECDED, core.TechIntelliNoC},
		})
		if err != nil {
			return "", nil, err
		}
		res, err := s.Run(experiments.RunOptions{Workers: workers, ResultsPath: path})
		if err != nil {
			return "", nil, err
		}
		recs, _, err = harness.LoadRecords(path)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderMarkdown(res.Figures), recs, nil
	}

	md1, recs1, err := runSuite(1, filepath.Join(dir, "w1.jsonl"))
	if err != nil {
		return fail("run-w1", err)
	}
	mdN, recsN, err := runSuite(3, filepath.Join(dir, "w3.jsonl"))
	if err != nil {
		return fail("run-w3", err)
	}

	if md1 != mdN {
		return &Finding{Check: "harness", Seed: seed, Cycle: -1, Router: -1,
			Field: "report-markdown",
			A:     fmt.Sprintf("%d bytes (workers=1)", len(md1)),
			B:     fmt.Sprintf("%d bytes (workers=3)", len(mdN))}
	}

	digests := make([]string, 0, len(recs1))
	for d := range recs1 {
		digests = append(digests, d)
	}
	sort.Strings(digests)
	for _, d := range digests {
		rN, ok := recsN[d]
		if !ok {
			return &Finding{Check: "harness", Seed: seed, Cycle: -1, Router: -1,
				Field: "record/" + d, A: "present (workers=1)", B: "missing (workers=3)"}
		}
		if h1, hN := harness.PayloadHash(recs1[d]), harness.PayloadHash(rN); h1 != hN {
			return &Finding{Check: "harness", Seed: seed, Cycle: -1, Router: -1,
				Field: "payload/" + d, A: h1, B: hN}
		}
	}
	if len(recsN) != len(recs1) {
		return &Finding{Check: "harness", Seed: seed, Cycle: -1, Router: -1,
			Field: "record-count",
			A:     fmt.Sprintf("%d", len(recs1)), B: fmt.Sprintf("%d", len(recsN))}
	}
	return nil
}

// checkPolicyZoo verifies the policy-zoo reproducibility contract for
// both RL techniques: a policy trained cold through a zoo-backed store
// persists to disk, a fresh store over the same directory (a restarted
// process) serves it back by exact spec digest, and the dependent run is
// bit-identical either way. The IntelliNoCBuf leg additionally
// round-trips the two-domain snapshot (format v2) through the zoo files.
func checkPolicyZoo(seed int64) *Finding {
	fail := func(field string, err error) *Finding {
		return &Finding{Check: "policyzoo", Seed: seed, Cycle: -1, Router: -1,
			Field: field, B: err.Error()}
	}
	dir, err := os.MkdirTemp("", "diffcheck-policyzoo-")
	if err != nil {
		return fail("tempdir", err)
	}
	defer os.RemoveAll(dir)
	zoo, err := core.NewPolicyStore(dir)
	if err != nil {
		return fail("zoo-open", err)
	}

	sim := core.SimConfig{Width: 4, Height: 4, TimeStepCycles: 500, Seed: seed}
	for _, tech := range []core.Technique{core.TechIntelliNoC, core.TechIntelliNoCBuf} {
		pol := experiments.PolicySpec{Sim: sim, Epochs: 1, PacketsPerEpoch: 120}
		if tech != core.TechIntelliNoC {
			pol.Tech = tech.String()
		}
		run := experiments.RunSpec{
			Tech: tech, Sim: sim,
			Workload: experiments.WorkloadSpec{
				Kind: experiments.WorkloadParsec, Bench: "swaptions", SeedDelta: 271,
			},
			Packets: 200,
			Policy:  &pol,
		}
		scenario := fmt.Sprintf("pretrain(%s,4x4,1,120) + swaptions/200, cold-trained vs zoo-loaded", tech)

		cold := experiments.NewZooPolicyStore(zoo)
		resA, err := run.Execute(cold)
		if err != nil {
			return fail(tech.String()+"/run-cold", err)
		}
		if resA.PacketsDelivered == 0 {
			return &Finding{Check: "policyzoo", Seed: seed, Scenario: scenario,
				Cycle: -1, Router: -1, Field: "vacuous",
				B: "cold-trained run delivered no packets"}
		}
		if st := cold.Stats(); st.Stores != 1 || st.Hits != 0 {
			return &Finding{Check: "policyzoo", Seed: seed, Scenario: scenario,
				Cycle: -1, Router: -1, Field: "zoo-stats-cold",
				A: "stores=1 hits=0", B: fmt.Sprintf("stores=%d hits=%d", st.Stores, st.Hits)}
		}

		reloaded := experiments.NewZooPolicyStore(zoo)
		resB, err := run.Execute(reloaded)
		if err != nil {
			return fail(tech.String()+"/run-zoo", err)
		}
		if st := reloaded.Stats(); st.Hits != 1 || st.Stores != 0 {
			return &Finding{Check: "policyzoo", Seed: seed, Scenario: scenario,
				Cycle: -1, Router: -1, Field: "zoo-stats-hit",
				A: "hits=1 stores=0", B: fmt.Sprintf("hits=%d stores=%d", st.Hits, st.Stores)}
		}

		if field, av, bv, equal := diffResult(resA, resB); !equal {
			return &Finding{Check: "policyzoo", Seed: seed, Scenario: scenario,
				Cycle: -1, Router: -1, Field: "Result." + field, A: av, B: bv}
		}
	}
	return nil
}
