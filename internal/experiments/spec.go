package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"intellinoc/internal/core"
	"intellinoc/internal/noc"
	"intellinoc/internal/traffic"
)

// digestVersion is folded into every content hash so that incompatible
// spec-format changes invalidate old results files instead of silently
// reusing them.
const digestVersion = "intellinoc/v1"

// WorkloadKind selects the traffic generator family of a RunSpec.
type WorkloadKind string

const (
	// WorkloadParsec replays a PARSEC workload model.
	WorkloadParsec WorkloadKind = "parsec"
	// WorkloadSynthetic injects a classic synthetic pattern.
	WorkloadSynthetic WorkloadKind = "synthetic"
)

// WorkloadSpec describes a traffic generator deterministically: kind,
// shape parameters, and the delta added to the simulation seed (the
// historical +271 for PARSEC models, +97 for load sweeps).
type WorkloadSpec struct {
	Kind          WorkloadKind    `json:"kind"`
	Bench         string          `json:"bench,omitempty"`
	Pattern       traffic.Pattern `json:"pattern,omitempty"`
	InjectionRate float64         `json:"injection_rate,omitempty"`
	PacketFlits   int             `json:"packet_flits,omitempty"`
	SeedDelta     int64           `json:"seed_delta"`
}

// parsecWorkload is the standard PARSEC workload spec (seed delta 271,
// matching core.ParsecWorkload).
func parsecWorkload(bench string) WorkloadSpec {
	return WorkloadSpec{Kind: WorkloadParsec, Bench: bench, SeedDelta: 271}
}

// generator materializes the traffic generator for a run.
func (w WorkloadSpec) generator(sim core.SimConfig, packets int) (traffic.Generator, error) {
	width, height := simWidth(sim), simHeight(sim)
	switch w.Kind {
	case WorkloadParsec:
		return traffic.NewParsec(w.Bench, width, height, packets, sim.Seed+w.SeedDelta)
	case WorkloadSynthetic:
		return traffic.NewSynthetic(traffic.SyntheticConfig{
			Width: width, Height: height, Pattern: w.Pattern,
			InjectionRate: w.InjectionRate, PacketFlits: w.PacketFlits,
			Packets: packets, Seed: sim.Seed + w.SeedDelta,
		})
	default:
		return nil, fmt.Errorf("experiments: unknown workload kind %q", w.Kind)
	}
}

// PolicySpec describes an RL pre-training pass (core.PretrainTechnique)
// deterministically. Runs that share a PolicySpec share the trained
// policy, exactly as the pre-harness code shared one pre-trained policy
// across a comparison matrix.
type PolicySpec struct {
	Sim             core.SimConfig `json:"sim"`
	Epochs          int            `json:"epochs"`
	PacketsPerEpoch int            `json:"packets_per_epoch"`
	// Tech names the RL technique to train ("" selects IntelliNoC, the
	// pre-zoo behavior; omitempty keeps those specs' digests byte-exact).
	Tech string `json:"tech,omitempty"`
	// WarmStart opts training into a zoo warm start (WarmStartNearest).
	// Warm-started tables depend on what the zoo happens to hold, so the
	// field is digest-visible — a warm-started policy can never be
	// deduplicated against a cold-trained one — and the daemon rejects
	// it (job results there must be reproducible from the spec alone).
	WarmStart string `json:"warm_start,omitempty"`
}

// WarmStartNearest asks the policy store to seed training from the
// nearest-scenario zoo entry instead of zero-initialized Q-tables.
const WarmStartNearest = "nearest"

// Digest content-hashes the pre-training configuration.
func (p PolicySpec) Digest() string { return digestOf("pretrain", p) }

// Technique resolves the spec's technique name ("" = IntelliNoC).
func (p PolicySpec) Technique() (core.Technique, error) {
	if p.Tech == "" {
		return core.TechIntelliNoC, nil
	}
	return core.ParseTechnique(p.Tech)
}

// Validate rejects specs no store could train.
func (p PolicySpec) Validate() error {
	tech, err := p.Technique()
	if err != nil {
		return err
	}
	if !tech.RLControlled() {
		return fmt.Errorf("experiments: technique %s has no RL agents to pre-train", tech)
	}
	if p.WarmStart != "" && p.WarmStart != WarmStartNearest {
		return fmt.Errorf("experiments: unknown warm-start mode %q (only %q)", p.WarmStart, WarmStartNearest)
	}
	return nil
}

// PretrainInfo is the JSONL payload of a pre-training job.
type PretrainInfo struct {
	MaxTableSize int `json:"max_table_size"`
}

// RunSpec fully describes one simulation: the technique (or ablation
// variant), experiment-level configuration, workload, packet budget and
// optional pre-trained policy. Everything a run's result depends on is
// in here, so the digest is a complete cache key.
type RunSpec struct {
	Tech     core.Technique `json:"tech"`
	Sim      core.SimConfig `json:"sim"`
	Workload WorkloadSpec   `json:"workload"`
	Packets  int            `json:"packets"`
	Policy   *PolicySpec    `json:"policy,omitempty"`
	// UseAblation routes through core.RunAblation with Ablation
	// (IntelliNoC hardware with one technique removed).
	UseAblation bool          `json:"use_ablation,omitempty"`
	Ablation    core.Ablation `json:"ablation,omitempty"`
}

// Digest content-hashes the full run configuration.
func (s RunSpec) Digest() string { return digestOf("run", s) }

// Execute runs the simulation, resolving the pre-trained policy (if
// any) through the store.
func (s RunSpec) Execute(policies *PolicyStore) (noc.Result, error) {
	return s.ExecuteContext(nil, policies)
}

// ExecuteContext is Execute with cooperative cancellation: on ctx
// cancellation the run stops early and returns the partial result with
// an error wrapping ctx.Err(). A nil ctx runs to completion.
func (s RunSpec) ExecuteContext(ctx context.Context, policies *PolicyStore) (noc.Result, error) {
	var policy *core.Policy
	if s.Policy != nil {
		p, err := policies.Get(*s.Policy)
		if err != nil {
			return noc.Result{}, err
		}
		policy = p
	}
	gen, err := s.Workload.generator(s.Sim, s.Packets)
	if err != nil {
		return noc.Result{}, err
	}
	if s.UseAblation {
		return core.RunAblation(ctx, s.Ablation, s.Sim, gen, policy)
	}
	out, err := core.Simulate(ctx, s.Tech, s.Sim, gen, core.WithPolicy(policy))
	return out.Result, err
}

// LabeledSpec pairs a run spec with its human-readable name
// ("fig17a/ferret/IntelliNoC"), used in progress lines and the results
// stream. The label is deliberately excluded from the digest so that
// identical runs shared by different figures deduplicate.
type LabeledSpec struct {
	Name string
	Spec RunSpec
}

// digestOf canonically serializes v (Go struct field order is stable)
// and hashes it under the given kind and format version.
func digestOf(kind string, v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		// Specs are plain data; marshaling cannot fail for any value
		// constructed in this package.
		panic(fmt.Sprintf("experiments: digesting %s spec: %v", kind, err))
	}
	h := sha256.Sum256([]byte(digestVersion + ":" + kind + ":" + string(raw)))
	return hex.EncodeToString(h[:16])
}

// PolicyStore memoizes pre-trained policies by spec digest. Concurrent
// Get calls for the same spec block until the single training pass
// finishes, so a policy shared by many runs is trained exactly once per
// process regardless of worker count.
//
// A store may additionally be backed by an on-disk policy zoo
// (core.PolicyStore): trained policies are persisted under their spec
// digest, exact-digest hits load instead of retraining (the loaded
// policy deploys through the same clone path, so dependent runs are
// bit-identical to cold-trained ones), and WarmStartNearest specs seed
// training from the closest compatible zoo entry.
type PolicyStore struct {
	mu      sync.Mutex
	entries map[string]*policyEntry
	zoo     *core.PolicyStore
	stats   ZooStats
}

type policyEntry struct {
	once   sync.Once
	policy *core.Policy
	err    error
}

// ZooStats counts a store's zoo traffic.
type ZooStats struct {
	// Hits counts exact-digest zoo loads that replaced a training pass.
	Hits uint64 `json:"hits"`
	// Stores counts freshly-trained policies persisted to the zoo.
	Stores uint64 `json:"stores"`
	// WarmStarts counts training passes seeded from a neighbor entry.
	WarmStarts uint64 `json:"warm_starts"`
}

// ZooMeta is the JSON sidecar of a zoo entry: everything Nearest needs
// without decoding the (much larger) policy blob.
type ZooMeta struct {
	Spec         PolicySpec `json:"spec"`
	MaxTableSize int        `json:"max_table_size"`
}

// NewPolicyStore builds an empty in-memory store.
func NewPolicyStore() *PolicyStore {
	return &PolicyStore{entries: make(map[string]*policyEntry)}
}

// NewZooPolicyStore builds a store backed by an on-disk policy zoo (nil
// degrades to a plain in-memory store).
func NewZooPolicyStore(zoo *core.PolicyStore) *PolicyStore {
	st := NewPolicyStore()
	st.zoo = zoo
	return st
}

// Stats returns a snapshot of the zoo counters.
func (st *PolicyStore) Stats() ZooStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// Get returns the policy for spec, training it on first use.
func (st *PolicyStore) Get(spec PolicySpec) (*core.Policy, error) {
	st.mu.Lock()
	e := st.entries[spec.Digest()]
	if e == nil {
		e = &policyEntry{}
		st.entries[spec.Digest()] = e
	}
	st.mu.Unlock()
	e.once.Do(func() {
		e.policy, e.err = st.train(spec)
	})
	if e.err != nil {
		return nil, fmt.Errorf("experiments: pre-training: %w", e.err)
	}
	return e.policy, nil
}

// train resolves one spec: zoo hit, else (optionally warm-started)
// training, persisting the fresh policy back to the zoo.
func (st *PolicyStore) train(spec PolicySpec) (*core.Policy, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tech, _ := spec.Technique()
	key := spec.Digest()
	if st.zoo != nil && st.zoo.Has(key) {
		if p, err := st.zoo.Load(key); err == nil {
			st.count(func(z *ZooStats) { z.Hits++ })
			return p, nil
		}
		// An unreadable entry is treated as a miss: retrain and let the
		// Save below overwrite it.
	}
	var warm *core.Policy
	if spec.WarmStart == WarmStartNearest {
		if wkey, _, ok := st.Nearest(spec); ok {
			if wp, err := st.zoo.Load(wkey); err == nil {
				warm = wp
				st.count(func(z *ZooStats) { z.WarmStarts++ })
			}
		}
	}
	p, err := core.PretrainTechnique(tech, spec.Sim, spec.Epochs, spec.PacketsPerEpoch, warm)
	if err != nil {
		return nil, err
	}
	if st.zoo != nil {
		// The zoo is a cache: a failed write (full disk, permissions)
		// must not fail the run that trained the policy.
		if err := st.zoo.Save(key, p, ZooMeta{Spec: spec, MaxTableSize: p.MaxTableSize()}); err == nil {
			st.count(func(z *ZooStats) { z.Stores++ })
		}
	}
	return p, nil
}

func (st *PolicyStore) count(f func(*ZooStats)) {
	st.mu.Lock()
	f(&st.stats)
	st.mu.Unlock()
}

// Nearest scans the zoo for the entry closest to spec on the
// pre-training design lattice. Hard axes — technique, mesh shape,
// topology — must match exactly (a warm start across them would hand
// agents tables trained under different geometry); the remaining knobs
// contribute a weighted distance. Ties break to the lexicographically
// smaller key, so the choice is deterministic for a given zoo state.
// The exact-digest entry for spec itself is excluded: that is a hit,
// not a neighbor.
func (st *PolicyStore) Nearest(spec PolicySpec) (key string, meta ZooMeta, ok bool) {
	if st.zoo == nil {
		return "", ZooMeta{}, false
	}
	keys, err := st.zoo.Keys()
	if err != nil {
		return "", ZooMeta{}, false
	}
	self := spec.Digest()
	best := math.Inf(1)
	for _, k := range keys {
		if k == self {
			continue
		}
		var m ZooMeta
		if err := st.zoo.LoadMeta(k, &m); err != nil {
			continue
		}
		d, compatible := specDistance(spec, m.Spec)
		if !compatible {
			continue
		}
		if d < best || (d == best && (!ok || k < key)) {
			best, key, meta, ok = d, k, m, true
		}
	}
	return key, meta, ok
}

// specDistance scores how far a candidate pre-training spec is from the
// wanted one, mirroring the axes the explore lattice sweeps. The bool is
// false when the candidate is incompatible (different technique, mesh,
// or topology).
func specDistance(want, have PolicySpec) (float64, bool) {
	if want.Tech != have.Tech {
		return 0, false
	}
	ws, hs := want.Sim, have.Sim
	if simWidth(ws) != simWidth(hs) || simHeight(ws) != simHeight(hs) || ws.Topology != hs.Topology {
		return 0, false
	}
	rel := func(a, b float64) float64 {
		den := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
		return math.Abs(a-b) / den
	}
	d := 0.0
	// Microarchitecture overrides shape the traffic the agents observe.
	d += 4 * rel(float64(ws.VCOverride), float64(hs.VCOverride))
	d += 4 * rel(float64(ws.BufDepthOverride), float64(hs.BufDepthOverride))
	// Control cadence and RL hyper-parameters.
	d += 2 * rel(float64(ws.TimeStepCycles), float64(hs.TimeStepCycles))
	d += 2 * rel(ws.Epsilon, hs.Epsilon)
	d += 2 * rel(ws.Gamma, hs.Gamma)
	d += rel(ws.Alpha, hs.Alpha)
	// Fault environment.
	d += 2 * rel(ws.ForcedErrorRate, hs.ForcedErrorRate)
	// Training budget.
	d += rel(float64(want.Epochs), float64(have.Epochs))
	d += rel(float64(want.PacketsPerEpoch), float64(have.PacketsPerEpoch))
	// Seed is the weakest signal: any same-scenario table beats none.
	if ws.Seed != hs.Seed {
		d += 0.125
	}
	return d, true
}

// Cached returns the already-trained policy for spec, or nil if Get was
// never called (e.g. every dependent run was resumed from the results
// stream).
func (st *PolicyStore) Cached(spec PolicySpec) *core.Policy {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.entries[spec.Digest()]; e != nil {
		return e.policy
	}
	return nil
}
