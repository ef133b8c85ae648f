// Package explore drives automated design-space exploration over the
// IntelliNoC simulator: it walks an experiments.Lattice of candidate
// configurations, evaluates points through the parallel harness (every
// evaluation is an ordinary digest-keyed harness job, so repeats across
// strategies, worker counts, and resumed runs are free), and maintains
// an incrementally pruned Pareto archive over (mean latency, energy per
// flit, uncorrected-error rate, area proxy).
//
// Three strategies share the archive and the evaluation cache —
// exhaustive grid, successive halving (short-budget rungs promote into
// full-budget rungs at higher pool priority, preempting queued grid
// points), and a (μ+λ) evolutionary loop seeded from the current
// frontier — plus a QoS admission search that finds the cheapest-area
// lattice point meeting hard latency/throughput bounds. Everything the
// package emits is deterministic: the frontier report is byte-identical
// across worker counts and across kill/resume of the same run (see
// DESIGN.md §12 for the argument).
package explore

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"intellinoc/internal/experiments"
	"intellinoc/internal/harness"
	"intellinoc/internal/noc"
)

// Pool priorities: later, more informative work preempts earlier queued
// work. Within halving/evolve, each rung/generation steps one higher so
// promotions jump the queue.
const (
	prioGrid    = 0
	prioHalving = 10
	prioEvolve  = 30
	prioQoS     = 50
)

// Options configures an Explorer.
type Options struct {
	// Workers bounds the harness pool; <=0 selects GOMAXPROCS.
	Workers int
	// Retries is passed to the harness (0 selects its default).
	Retries int
	// ResultsPath, when set, stores every executed evaluation in this
	// JSONL file (a harness.Store, as cmd/experiments writes, so resume
	// healing and cmd/regress both apply).
	ResultsPath string
	// Resume loads ResultsPath first; recorded digests are served from
	// the file instead of re-simulated.
	Resume bool
	// Progress, when non-nil, receives live status lines.
	Progress io.Writer
	// Observer, when non-nil, receives every executed harness record —
	// the telemetry tap. Must be safe for concurrent use.
	Observer func(harness.Record)
	// Ctx, when non-nil, cancels the exploration; streamed records stay
	// in ResultsPath for a -resume rerun.
	Ctx context.Context
	// Shards steps each simulated mesh with this many parallel shards
	// (digest-neutral; see core.SimConfig.Shards).
	Shards int
}

// Explorer owns one exploration session: the lattice, the harness pool,
// the digest-keyed result cache, and the Pareto archive the strategies
// fill. Strategies must be invoked from one goroutine; the parallelism
// lives inside the pool.
type Explorer struct {
	lat     experiments.Lattice
	opts    Options
	pool    *harness.Pool
	records *harness.Store
	store   *experiments.PolicyStore
	archive *Archive

	results    map[string]noc.Result // every decoded evaluation
	requested  map[string]bool       // distinct digests ever submitted
	infeasible map[string]bool       // digests that evaluated infeasible
	strategies []string
}

// New validates the lattice, loads any resumable results, and starts
// the worker pool. Close must be called to release it.
func New(lat experiments.Lattice, opts Options) (*Explorer, error) {
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	records, err := harness.OpenStore(opts.ResultsPath, opts.Resume)
	if err != nil {
		return nil, err
	}
	e := &Explorer{
		lat: lat, opts: opts, records: records,
		store:      experiments.NewPolicyStore(),
		archive:    NewArchive(),
		results:    make(map[string]noc.Result),
		requested:  make(map[string]bool),
		infeasible: make(map[string]bool),
	}

	var prog *harness.Progress
	if opts.Progress != nil {
		prog = harness.NewProgress(opts.Progress, "explore")
	}
	e.pool = harness.NewPool(harness.Options{
		Workers: opts.Workers, Retries: opts.Retries,
		Store: records, Lookup: records.Get,
		Progress: prog, Observer: opts.Observer, Ctx: opts.Ctx,
	})
	return e, nil
}

// Close tears down the pool and the results store.
func (e *Explorer) Close() error {
	e.pool.Close()
	return e.records.Close()
}

// Archive exposes the shared Pareto archive.
func (e *Explorer) Archive() *Archive { return e.archive }

// pending tracks an in-flight batch of submissions so a strategy can
// overlap its queue with later, higher-priority work (Grid submits
// asynchronously; halving promotions then preempt the queued points).
type pending struct {
	points  []Point
	futures []*harness.Future
}

// outcome is one collected evaluation.
type outcome struct {
	Point    Point
	Feasible bool
}

// spec materializes a coordinate with the session's execution-only
// settings (shard count) applied. Shards is digest-neutral, so cached
// and fresh evaluations stay interchangeable.
func (e *Explorer) spec(c experiments.LatticeCoord, packets int) experiments.RunSpec {
	s := e.lat.Spec(c, packets)
	s.Sim.Shards = e.opts.Shards
	return s
}

// submit enqueues one evaluation per coordinate at the given priority.
func (e *Explorer) submit(coords []experiments.LatticeCoord, packets, priority int) *pending {
	p := &pending{}
	for _, c := range coords {
		spec := e.spec(c, packets)
		digest := spec.Digest()
		e.requested[digest] = true
		point := Point{Coord: c, Spec: spec, Digest: digest, Name: e.lat.Label(c, packets)}
		job := harness.Job{
			Digest: digest, Kind: "explore", Name: point.Name,
			Seed: spec.Sim.Seed, Priority: priority,
			Run: func() (any, error) { return spec.ExecuteContext(e.opts.Ctx, e.store) },
		}
		p.points = append(p.points, point)
		p.futures = append(p.futures, e.pool.Submit(job))
	}
	return p
}

// collect waits for a batch and extracts objective vectors. A canceled
// context aborts; an individual failed evaluation (invalid configuration
// or simulator error — identical on every rerun) marks its point
// infeasible and the search continues.
func (e *Explorer) collect(p *pending) ([]outcome, error) {
	out := make([]outcome, 0, len(p.points))
	for i, fut := range p.futures {
		point := p.points[i]
		rec, err := fut.Wait()
		if err != nil {
			if e.opts.Ctx != nil && e.opts.Ctx.Err() != nil {
				return nil, fmt.Errorf("explore: canceled: %w", e.opts.Ctx.Err())
			}
			e.infeasible[point.Digest] = true
			out = append(out, outcome{Point: point})
			continue
		}
		res, ok := e.results[point.Digest]
		if !ok {
			if err := decodeResult(rec, &res); err != nil {
				return nil, err
			}
			e.results[point.Digest] = res
		}
		point.Objectives = experiments.NewObjectives(point.Spec, res)
		feasible := point.Objectives.Finite()
		if !feasible {
			e.infeasible[point.Digest] = true
		}
		out = append(out, outcome{Point: point, Feasible: feasible})
	}
	return out, nil
}

// evaluate is submit + collect.
func (e *Explorer) evaluate(coords []experiments.LatticeCoord, packets, priority int) ([]outcome, error) {
	return e.collect(e.submit(coords, packets, priority))
}

func decodeResult(rec harness.Record, res *noc.Result) error {
	if err := json.Unmarshal(rec.Payload, res); err != nil {
		return fmt.Errorf("explore: decoding result %s (%s): %w", rec.Digest, rec.Name, err)
	}
	return nil
}

// result returns the decoded Result for an evaluated digest.
func (e *Explorer) result(digest string) (noc.Result, bool) {
	res, ok := e.results[digest]
	return res, ok
}

// markStrategy records a strategy execution for the report, keeping the
// list duplicate-free in execution order.
func (e *Explorer) markStrategy(name string) {
	for _, s := range e.strategies {
		if s == name {
			return
		}
	}
	e.strategies = append(e.strategies, name)
}

// Evaluations returns the number of distinct configurations submitted so
// far (cached or executed). Deterministic across worker counts and
// resume, unlike executed-job counts.
func (e *Explorer) Evaluations() int { return len(e.requested) }

// InfeasibleCount returns the distinct configurations that evaluated
// infeasible (non-finite objectives or a failed simulation).
func (e *Explorer) InfeasibleCount() int { return len(e.infeasible) }

// SkippedLines reports unparsable results-file lines tolerated during
// resume.
func (e *Explorer) SkippedLines() int { return e.records.Skipped() }

// stride picks k evenly spaced coordinates out of a deterministic list
// (the evolutionary loop's cold-start seeding).
func stride(coords []experiments.LatticeCoord, k int) []experiments.LatticeCoord {
	if k >= len(coords) {
		out := make([]experiments.LatticeCoord, len(coords))
		copy(out, coords)
		return out
	}
	out := make([]experiments.LatticeCoord, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, coords[i*len(coords)/k])
	}
	return out
}

// uniqueCoords dedups a coordinate list preserving first occurrence.
func uniqueCoords(coords []experiments.LatticeCoord) []experiments.LatticeCoord {
	seen := make(map[experiments.LatticeCoord]bool, len(coords))
	out := coords[:0:0]
	for _, c := range coords {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}
