package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"

	"intellinoc/internal/core"
	"intellinoc/internal/harness"
	"intellinoc/internal/noc"
	"intellinoc/internal/traffic"
)

// Lookup resolves a run spec to its (possibly resumed) result.
type Lookup func(RunSpec) (noc.Result, error)

// Experiment is one schedulable unit of the evaluation: a static list of
// run specs plus a pure assembly step that turns their results into
// figures. Specs carry no inter-job dependencies, so the suite can fan
// every run of every experiment onto one worker pool.
type Experiment struct {
	// IDs are the figure ids this experiment produces (the -only keys).
	IDs []string
	// Specs lists every simulation the experiment needs.
	Specs []LabeledSpec
	// Assemble builds the figures from the results. It must be pure: the
	// suite calls it after all jobs finish, in report order, so output
	// is independent of worker count and completion order.
	Assemble func(Lookup) ([]Figure, error)
}

// SuiteOptions configures suite construction.
type SuiteOptions struct {
	Sim core.SimConfig
	// Packets is the per-run packet budget (default 60000; -quick passes
	// 15000).
	Packets int
	// Quick drops the beyond-the-paper extension experiments, as the
	// pre-harness cmd/experiments did.
	Quick bool
	// Only restricts output to these figure ids; empty selects all.
	// Unknown ids are an error.
	Only []string
	// Benchmarks overrides the comparison benchmark list (tests use
	// reduced subsets); nil selects the full PARSEC set.
	Benchmarks []string
	// SweepBenches overrides the Fig. 17 sweep benchmarks.
	SweepBenches []string
	// Techniques overrides the compared designs; nil selects all five.
	Techniques []core.Technique
	// LoadRates overrides the loadsweep injection-rate ladder (tests and
	// benches use reduced ladders); nil selects the default six rates.
	LoadRates []float64
}

// Suite is the decomposed experiment plan: every selected experiment's
// specs, ready to run deduplicated on a worker pool.
type Suite struct {
	opts        SuiteOptions
	selected    map[string]bool // empty = all
	Experiments []Experiment
	// comparisonPolicy is set when the comparison matrix (and thus its
	// shared pre-trained policy) is part of the plan.
	comparisonPolicy *PolicySpec
}

// ExperimentIDs lists every known figure id in report order.
func ExperimentIDs() []string {
	return []string{
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17a", "fig17b", "fig18a", "fig18b", "table2",
		"ablation", "loadsweep", "ext-ctrlfaults", "ext-sarsa",
	}
}

// NewSuite validates the options and builds the experiment plan.
func NewSuite(opts SuiteOptions) (*Suite, error) {
	if opts.Packets == 0 {
		opts.Packets = 60000
	}
	if opts.Benchmarks == nil {
		opts.Benchmarks = traffic.ParsecBenchmarks()
	}
	if opts.SweepBenches == nil {
		opts.SweepBenches = []string{"bodytrack", "canneal", "ferret", "swaptions"}
	}
	if opts.Techniques == nil {
		opts.Techniques = core.Techniques()
	}
	known := make(map[string]bool)
	for _, id := range ExperimentIDs() {
		known[id] = true
	}
	selected := make(map[string]bool)
	for _, id := range opts.Only {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if !known[id] {
			return nil, fmt.Errorf("experiments: unknown experiment id %q (known: %s)",
				id, strings.Join(ExperimentIDs(), ", "))
		}
		selected[id] = true
	}
	s := &Suite{opts: opts, selected: selected}
	s.build()
	return s, nil
}

// want reports whether any of the ids is selected.
func (s *Suite) want(ids ...string) bool {
	if len(s.selected) == 0 {
		return true
	}
	for _, id := range ids {
		if s.selected[id] {
			return true
		}
	}
	return false
}

// build assembles the experiment list in report order.
func (s *Suite) build() {
	sim, packets := s.opts.Sim, s.opts.Packets
	comparisonIDs := []string{"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"}
	if s.want(comparisonIDs...) {
		benchmarks, techs := s.opts.Benchmarks, s.opts.Techniques
		for _, t := range techs {
			if t == core.TechIntelliNoC {
				pol := comparisonPolicySpec(sim, packets)
				s.comparisonPolicy = &pol
			}
		}
		s.Experiments = append(s.Experiments, Experiment{
			IDs:   comparisonIDs,
			Specs: ComparisonSpecs(sim, packets, benchmarks, techs),
			Assemble: func(look Lookup) ([]Figure, error) {
				cmp, err := AssembleComparison(sim, packets, benchmarks, techs, look)
				if err != nil {
					return nil, err
				}
				return cmp.AllComparisonFigures(), nil
			},
		})
	}
	sweep := s.opts.SweepBenches
	one := func(id string, specs []LabeledSpec, asm func(Lookup) (Figure, error)) {
		s.Experiments = append(s.Experiments, Experiment{
			IDs: []string{id}, Specs: specs,
			Assemble: func(look Lookup) ([]Figure, error) {
				fig, err := asm(look)
				if err != nil {
					return nil, err
				}
				return []Figure{fig}, nil
			},
		})
	}
	if s.want("fig17a") {
		one("fig17a", fig17aSpecs(sim, packets/2, sweep),
			func(look Lookup) (Figure, error) { return assembleFig17a(sim, packets/2, sweep, look) })
	}
	if s.want("fig17b") {
		one("fig17b", fig17bSpecs(sim, packets/2, sweep),
			func(look Lookup) (Figure, error) { return assembleFig17b(sim, packets/2, sweep, look) })
	}
	if s.want("fig18a") {
		sw := gammaSweep()
		one("fig18a", sw.specs(sim, packets/2),
			func(look Lookup) (Figure, error) { return sw.assemble(sim, packets/2, look) })
	}
	if s.want("fig18b") {
		sw := epsilonSweep()
		one("fig18b", sw.specs(sim, packets/2),
			func(look Lookup) (Figure, error) { return sw.assemble(sim, packets/2, look) })
	}
	if s.want("table2") {
		s.Experiments = append(s.Experiments, Experiment{
			IDs: []string{"table2"},
			Assemble: func(Lookup) ([]Figure, error) {
				return []Figure{Table2Area()}, nil
			},
		})
	}
	if s.opts.Quick {
		return // extensions are full-suite only, as before the harness
	}
	if s.want("ablation") {
		benches := sweep[:min(2, len(sweep))]
		one("ablation", ablationSpecs(sim, packets/3, benches),
			func(look Lookup) (Figure, error) { return assembleAblation(sim, packets/3, benches, look) })
	}
	if s.want("loadsweep") {
		rates := s.opts.LoadRates
		one("loadsweep", loadSweepSpecs(sim, packets/4, rates),
			func(look Lookup) (Figure, error) { return assembleLoadSweep(sim, packets/4, rates, look) })
	}
	if s.want("ext-ctrlfaults") {
		one("ext-ctrlfaults", controlFaultSpecs(sim, packets/3, "ferret"),
			func(look Lookup) (Figure, error) { return assembleControlFaults(sim, packets/3, "ferret", look) })
	}
	if s.want("ext-sarsa") {
		benches := sweep[:min(2, len(sweep))]
		one("ext-sarsa", sarsaSpecs(sim, packets/3, benches),
			func(look Lookup) (Figure, error) { return assembleSARSA(sim, packets/3, benches, look) })
	}
}

// RunOptions configures suite execution.
type RunOptions struct {
	// Workers bounds the pool; <=0 selects GOMAXPROCS.
	Workers int
	// ResultsPath, when set, stores every executed job in this JSONL
	// file (a harness.Store).
	ResultsPath string
	// Resume loads ResultsPath first and skips jobs whose digest is
	// already recorded, appending only new records.
	Resume bool
	// Progress, when non-nil, receives live status lines (normally
	// stderr).
	Progress io.Writer
	// Retries is passed to the harness (0 selects its default).
	Retries int
	// Observer, when non-nil, receives every finished harness record
	// (pretrain and run phases alike) — the telemetry tap. Called
	// concurrently from worker goroutines; must be safe for concurrent
	// use. Has no effect on results.
	Observer func(harness.Record)
	// Ctx, when non-nil, cancels the suite: dispatch stops, in-flight
	// simulations stop at their next cancellation poll, and Run returns
	// an error wrapping ctx.Err(). Records streamed before cancellation
	// remain in ResultsPath, so a -resume rerun picks up where the
	// canceled one stopped.
	Ctx context.Context
	// PolicyZoo, when non-nil, backs the suite's policy store with an
	// on-disk zoo: pre-training passes whose digest is already in the
	// zoo load instead of retraining (bit-identical downstream results),
	// and fresh passes are persisted for future suites and daemons.
	PolicyZoo *core.PolicyStore
}

// SuiteResult is the outcome of a suite run.
type SuiteResult struct {
	// Figures holds the selected figures in report order.
	Figures []Figure
	// MaxQTableEntries is the comparison policy's largest Q-table (the
	// paper's 350-entry budget check); 0 when unavailable.
	MaxQTableEntries int
	// JobsRun and JobsCached count executed vs resume-skipped jobs.
	JobsRun, JobsCached int
	// SkippedLines counts unparsable results-file lines tolerated during
	// resume (e.g. a partial line left by a kill).
	SkippedLines int
	// Zoo counts policy-zoo traffic (all zero without RunOptions.PolicyZoo).
	Zoo ZooStats
}

// Run executes the plan: deduplicate specs across experiments, resume
// past already-recorded digests, pre-train needed policies (phase 1),
// run the remaining simulations (phase 2), then assemble figures in
// report order. The report is byte-identical for any worker count and
// for resumed vs uninterrupted runs.
func (s *Suite) Run(opts RunOptions) (*SuiteResult, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}

	// Collect the unique run specs in plan order.
	var ordered []LabeledSpec
	seen := make(map[string]bool)
	for _, ex := range s.Experiments {
		for _, ls := range ex.Specs {
			d := ls.Spec.Digest()
			if !seen[d] {
				seen[d] = true
				ordered = append(ordered, ls)
			}
		}
	}

	records, err := harness.OpenStore(opts.ResultsPath, opts.Resume)
	if err != nil {
		return nil, err
	}
	defer records.Close() // every put has flushed; Close loses nothing
	res := &SuiteResult{SkippedLines: records.Skipped()}

	// Collect the policies the not-yet-recorded runs need. Policies
	// whose dependent runs are all recorded are never re-trained.
	needPolicy := make(map[string]PolicySpec)
	var policyOrder []string
	for _, ls := range ordered {
		if _, ok := records.Get(ls.Spec.Digest()); ok {
			res.JobsCached++
			continue
		}
		if p := ls.Spec.Policy; p != nil {
			d := p.Digest()
			if _, ok := needPolicy[d]; !ok {
				needPolicy[d] = *p
				policyOrder = append(policyOrder, d)
			}
		}
	}

	store := NewZooPolicyStore(opts.PolicyZoo)

	// Phase 1: pre-train policies as first-class jobs so progress and
	// the results file account for them. Their records are stored but
	// never served (no Lookup): a pretrain record carries the table size,
	// not the Q-table the runs need.
	var pretrainJobs []harness.Job
	for _, d := range policyOrder {
		d, spec := d, needPolicy[d]
		pretrainJobs = append(pretrainJobs, harness.Job{
			Digest: d, Kind: "pretrain",
			Name: fmt.Sprintf("pretrain/%dx%d-seed%d-%s", spec.Epochs, spec.PacketsPerEpoch, spec.Sim.Seed, d[:8]),
			Seed: spec.Sim.Seed,
			Run: func() (any, error) {
				policy, err := store.Get(spec)
				if err != nil {
					return nil, err
				}
				return PretrainInfo{MaxTableSize: policy.MaxTableSize()}, nil
			},
		})
	}
	if len(pretrainJobs) > 0 {
		var prog *harness.Progress
		if opts.Progress != nil {
			prog = harness.NewProgress(opts.Progress, "pretrain")
		}
		if _, err := harness.Run(pretrainJobs, harness.Options{
			Workers: opts.Workers, Retries: opts.Retries, Store: records, Progress: prog,
			Observer: opts.Observer, Ctx: opts.Ctx,
		}); err != nil {
			return nil, err
		}
		res.JobsRun += len(pretrainJobs)
	}

	// Phase 2: the simulations themselves. Recorded runs are served
	// through Lookup, which Progress counts as cache hits rather than
	// pending work in the ETA.
	var runJobs []harness.Job
	for _, ls := range ordered {
		spec := ls.Spec
		runJobs = append(runJobs, harness.Job{
			Digest: spec.Digest(), Kind: "run", Name: ls.Name, Seed: spec.Sim.Seed,
			Run: func() (any, error) { return spec.ExecuteContext(opts.Ctx, store) },
		})
	}
	var results map[string]json.RawMessage
	if len(runJobs) > 0 {
		var prog *harness.Progress
		if opts.Progress != nil {
			prog = harness.NewProgress(opts.Progress, "run")
		}
		results, err = harness.Run(runJobs, harness.Options{
			Workers: opts.Workers, Retries: opts.Retries, Store: records, Progress: prog,
			Observer: opts.Observer, Lookup: records.Get, Ctx: opts.Ctx,
		})
		if err != nil {
			return nil, err
		}
		res.JobsRun += len(runJobs) - res.JobsCached
	}

	// Assembly, in report order, from the digest-keyed results — the
	// only inputs, so worker count and completion order cannot leak in.
	look := rawLookup(results)
	for _, ex := range s.Experiments {
		figs, err := ex.Assemble(look)
		if err != nil {
			return nil, err
		}
		for _, fig := range figs {
			if s.want(fig.ID) {
				res.Figures = append(res.Figures, fig)
			}
		}
	}

	if s.comparisonPolicy != nil {
		res.MaxQTableEntries = policyTableSize(*s.comparisonPolicy, store, records)
	}
	res.Zoo = store.Stats()
	return res, nil
}

// policyTableSize recovers a policy's Q-table size from the in-memory
// store or, on a fully-cached resume, from its pretrain record.
func policyTableSize(spec PolicySpec, store *PolicyStore, records *harness.Store) int {
	if p := store.Cached(spec); p != nil {
		return p.MaxTableSize()
	}
	if rec, ok := records.Get(spec.Digest()); ok {
		var info PretrainInfo
		if err := json.Unmarshal(rec.Payload, &info); err == nil {
			return info.MaxTableSize
		}
	}
	return 0
}

// ExecuteSpecs executes labeled specs inline on the harness pool (no
// results stream, no resume) and returns a lookup over their results.
// It is the direct-execution path for callers that assemble their own
// figures — benches, tests, and tooling — replacing the deleted
// per-figure wrapper functions. A nil ctx runs to completion; workers
// <= 0 selects GOMAXPROCS.
func ExecuteSpecs(ctx context.Context, specs []LabeledSpec, store *PolicyStore, workers int) (Lookup, error) {
	jobs := make([]harness.Job, 0, len(specs))
	for _, ls := range specs {
		spec := ls.Spec
		jobs = append(jobs, harness.Job{
			Digest: spec.Digest(), Kind: "run", Name: ls.Name, Seed: spec.Sim.Seed,
			Run: func() (any, error) { return spec.ExecuteContext(ctx, store) },
		})
	}
	out, err := harness.Run(jobs, harness.Options{Workers: workers, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	return rawLookup(out), nil
}

// rawLookup adapts a digest-keyed payload map into a Lookup.
func rawLookup(m map[string]json.RawMessage) Lookup {
	return func(spec RunSpec) (noc.Result, error) {
		raw, ok := m[spec.Digest()]
		if !ok {
			return noc.Result{}, fmt.Errorf("experiments: no result for spec %s", spec.Digest())
		}
		var r noc.Result
		if err := json.Unmarshal(raw, &r); err != nil {
			return noc.Result{}, fmt.Errorf("experiments: decoding result %s: %w", spec.Digest(), err)
		}
		return r, nil
	}
}

// SortedDigests returns the digests of every spec in the plan, sorted —
// used by tests and tooling to reason about coverage.
func (s *Suite) SortedDigests() []string {
	seen := make(map[string]bool)
	var out []string
	for _, ex := range s.Experiments {
		for _, ls := range ex.Specs {
			d := ls.Spec.Digest()
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	sort.Strings(out)
	return out
}
