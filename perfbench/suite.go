package main

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"intellinoc/internal/core"
	"intellinoc/internal/experiments"
	"intellinoc/internal/harness"
	"intellinoc/internal/noc"
)

// quickSuiteOptions are cmd/experiments -quick's suite options, whose
// results testdata/golden/quick.digests pins. tiny keeps one sweep.
func quickSuiteOptions(tiny bool) experiments.SuiteOptions {
	opts := experiments.SuiteOptions{
		Sim:          core.SimConfig{Seed: 1},
		Packets:      15000,
		Quick:        true,
		SweepBenches: []string{"ferret", "swaptions"},
	}
	if tiny {
		opts.Only = []string{"fig18a"}
	}
	return opts
}

// quickSpecs lists the suite's unique run specs in plan order.
func quickSpecs(s *experiments.Suite) []experiments.LabeledSpec {
	var out []experiments.LabeledSpec
	seen := map[string]bool{}
	for _, ex := range s.Experiments {
		for _, ls := range ex.Specs {
			if d := ls.Spec.Digest(); !seen[d] {
				seen[d] = true
				out = append(out, ls)
			}
		}
	}
	return out
}

// jobRates accumulates simulated cycles and job wall time per technique
// class from run records, the simulator speed seen inside a job.
type jobRates struct {
	cycles map[string]float64
	ms     map[string]float64
}

func newJobRates() *jobRates {
	return &jobRates{cycles: map[string]float64{}, ms: map[string]float64{}}
}

// add classifies a run record by its spec: sequential SECDED and
// IntelliNoC runs count, ablations and other designs do not.
func (j *jobRates) add(spec experiments.RunSpec, wallMS float64, res noc.Result) {
	if spec.UseAblation || spec.Sim.Shards > 1 {
		return
	}
	switch spec.Tech {
	case core.TechSECDED, core.TechIntelliNoC:
		j.cycles[spec.Tech.String()] += float64(res.Cycles)
		j.ms[spec.Tech.String()] += wallMS
	}
}

// rate is t's simulated cycles per CPU second, its jobs' wall time
// converted to CPU time with the pass's cpuPerWall k.
func (j *jobRates) rate(t core.Technique, k float64) float64 {
	return j.cycles[t.String()] / (k * j.ms[t.String()] / 1000)
}

// cpuPerWall is the process CPU time a pass used per millisecond of its
// jobs' wall time, summed over the jobs that ran at once. The job
// workloads charge each job that share of the pass's CPU time: while
// the host deschedules the process, jobs' wall time runs on but its CPU
// time does not, so the charge leaves that wait out, as the
// single-network workloads' CPU times do. When the jobs keep both
// workers busy and the host takes nothing, it is about 1.
func cpuPerWall(cpu time.Duration, jobWallMS float64) float64 {
	return float64(cpu.Nanoseconds()) / 1e6 / jobWallMS
}

// passMetrics holds one value per pass of each end-to-end
// metric of the job workloads. A run reports the median over its passes,
// so a pass the host disturbed moves it less than pooling the jobs of
// all passes would.
type passMetrics map[string][]float64

// add records one pass: its rates, the wall latencies of its simulated
// jobs, their conversion to CPU time, how many jobs it completed and its
// CPU time.
func (p passMetrics) add(rates *jobRates, latencies []float64, k float64, jobs int, cpu time.Duration) {
	for name, v := range map[string]float64{
		"baseline_cycles_per_s":   rates.rate(core.TechSECDED, k),
		"intellinoc_cycles_per_s": rates.rate(core.TechIntelliNoC, k),
		"suite_wall_s":            cpu.Seconds(),
		"jobs_per_s":              float64(jobs) / cpu.Seconds(),
		"miss_p50_ms":             k * percentile(latencies, 50),
		"miss_p90_ms":             k * percentile(latencies, 90),
	} {
		p[name] = append(p[name], v)
	}
}

func (p passMetrics) fill(m map[string]float64) {
	for name, vs := range p {
		m[name] = median(vs)
	}
}

func runQuickSuite(ctx context.Context, rc runConfig) *report {
	rep := newReport()
	golden, err := loadGolden(rc.root)
	if err != nil {
		rep.attempted++
		rep.fail("golden digests: %v", err)
		return rep
	}
	opts := quickSuiteOptions(rc.tiny)
	var suite *experiments.Suite
	setup, err := timeSetup(1001, func() (err error) {
		suite, err = experiments.NewSuite(opts)
		return err
	})
	if err != nil {
		rep.attempted++
		rep.fail("NewSuite: %v", err)
		return rep
	}
	rep.e2e["setup_s"] = setup
	specs := map[string]experiments.RunSpec{}
	for _, ls := range quickSpecs(suite) {
		specs[ls.Spec.Digest()] = ls.Spec
	}

	const workers = 2
	perPass := passMetrics{}
	var runMS, pretrainMS, util, assemble, packets, flitsPerCycle []float64
	deadline := time.Now().Add(rc.budget)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		var mu sync.Mutex
		var recs []harness.Record
		var last time.Time // when the last record was observed
		observe := func(rec harness.Record) {
			now := time.Now()
			mu.Lock()
			recs = append(recs, rec)
			last = now
			mu.Unlock()
		}
		start, cpu0 := time.Now(), cpuTime()
		_, err := suite.Run(experiments.RunOptions{Workers: workers, Observer: observe, Ctx: ctx})
		wall, cpu := time.Since(start), cpuTime()-cpu0
		returned := time.Now()
		want := len(golden)
		if rc.tiny {
			want = len(recs)
		}
		rep.attempted += want
		if err != nil {
			rep.fail("pass %d: suite run: %v", pass, err)
			rep.failed += max(want-len(recs)-1, 0)
			return rep
		}
		if !checkSuiteRecords(rep, recs, golden, rc.tiny) {
			return rep
		}
		rates := newJobRates()
		var latencies []float64
		var run, pre, pk, fl, cy float64
		for _, rec := range recs {
			latencies = append(latencies, rec.WallMS)
			if rec.Kind == "pretrain" {
				pre += rec.WallMS
				continue
			}
			run += rec.WallMS
			var res noc.Result
			if err := json.Unmarshal(rec.Payload, &res); err != nil {
				rep.fail("record %s (%s): payload: %v", rec.Digest, rec.Name, err)
				return rep
			}
			pk += float64(res.PacketsDelivered)
			fl += float64(res.FlitsDelivered)
			cy += float64(res.Cycles)
			rates.add(specs[rec.Digest], rec.WallMS, res)
		}
		perPass.add(rates, latencies, cpuPerWall(cpu, run+pre), len(recs), cpu)
		// The per-layer numbers come from the same passes: the suite
		// reports them through its public Observer, with nothing wrapped.
		runMS = append(runMS, run)
		pretrainMS = append(pretrainMS, pre)
		util = append(util, (run+pre)/(workers*float64(wall.Nanoseconds())/1e6))
		assemble = append(assemble, float64(returned.Sub(last).Nanoseconds())/1e6)
		packets = append(packets, pk)
		flitsPerCycle = append(flitsPerCycle, fl/cy)
	}
	perPass.fill(rep.e2e)
	rep.layer["harness.run_ms_sum"] = median(runMS)
	rep.layer["harness.pretrain_ms_sum"] = median(pretrainMS)
	rep.layer["harness.utilization"] = median(util)
	rep.layer["experiments.assemble_ms"] = median(assemble)
	rep.layer["traffic.packets"] = median(packets)
	rep.layer["noc.flits_per_cycle"] = median(flitsPerCycle)
	// Nothing is instrumented on this workload, so there is no traced
	// pass and trace.overhead stays 0.
	return rep
}

// checkSuiteRecords gates one pass against the golden digests: every
// record must match, and a full pass must produce every golden entry.
// It reports whether the pass was clean.
func checkSuiteRecords(rep *report, recs []harness.Record, golden map[string]string, partial bool) bool {
	before := rep.failed
	seen := map[string]bool{}
	for _, rec := range recs {
		want, ok := golden[rec.Digest]
		switch {
		case !ok:
			rep.fail("record %s (%s) is not in the golden digests", rec.Digest, rec.Name)
		case harness.PayloadHash(rec) != want:
			rep.fail("record %s (%s): payload hash %s, golden %s", rec.Digest, rec.Name, harness.PayloadHash(rec), want)
		case seen[rec.Digest]:
			rep.fail("record %s (%s) streamed twice", rec.Digest, rec.Name)
		}
		seen[rec.Digest] = true
	}
	if !partial {
		for d := range golden {
			if !seen[d] {
				rep.fail("golden job %s produced no record", d)
			}
		}
	}
	if rep.failed > before {
		return false
	}
	if len(recs) == 0 {
		rep.fail("suite produced no records")
		return false
	}
	return true
}
