// Package intellinoc is a from-scratch reproduction of "IntelliNoC: A
// Holistic Design Framework for Energy-Efficient and Reliable On-Chip
// Communication for Manycores" (Wang, Louri, Karanth, Bunescu — ISCA
// 2019). It bundles a cycle-level 2D-mesh NoC simulator, the paper's
// three architectural techniques (multi-function adaptive channels,
// per-router adaptive ECC, stress-relaxing bypass), the five operation
// modes, per-router Q-learning control, and the comparison designs
// (static SECDED, Elastic Buffers, iDEAL+power-gating, CPD).
//
// Quick start:
//
//	gen, _ := intellinoc.ParsecWorkload("canneal", intellinoc.SimConfig{}, 20000)
//	out, err := intellinoc.Simulate(ctx, intellinoc.TechIntelliNoC, intellinoc.SimConfig{}, gen)
//	fmt.Println(out.Result.AvgLatency, out.Result.EnergyEfficiency())
//
// The experiment harness that regenerates every table and figure of the
// paper's evaluation lives in internal/experiments and is exposed through
// cmd/experiments and the bench_test.go targets.
package intellinoc

import (
	"context"
	"io"

	"intellinoc/internal/core"
	"intellinoc/internal/noc"
	"intellinoc/internal/power"
	"intellinoc/internal/traffic"
)

// Technique identifies one of the five compared NoC designs.
type Technique = core.Technique

// The five designs of the paper's evaluation (Section 6.3), plus the
// RACE-style buffer-RL extension.
const (
	TechSECDED        = core.TechSECDED
	TechEB            = core.TechEB
	TechCP            = core.TechCP
	TechCPD           = core.TechCPD
	TechIntelliNoC    = core.TechIntelliNoC
	TechIntelliNoCBuf = core.TechIntelliNoCBuf
)

// Techniques lists the paper's five designs in figure order.
func Techniques() []Technique { return core.Techniques() }

// AllTechniques lists every technique, paper designs first.
func AllTechniques() []Technique { return core.AllTechniques() }

// ParseTechnique resolves a printed technique name.
func ParseTechnique(s string) (Technique, error) { return core.ParseTechnique(s) }

// SimConfig is the experiment-level configuration (mesh size, RL time
// step, error rates, RL hyper-parameters). The zero value selects the
// paper's Table 1 setup on an 8×8 mesh.
type SimConfig = core.SimConfig

// Result carries every metric a run produces: execution time, latency,
// energy, retransmissions, operation-mode breakdown, MTTF, temperatures.
type Result = noc.Result

// Mode is one of the five proactive operation modes of Section 4.
type Mode = noc.Mode

// The operation modes.
const (
	ModeBypass  = noc.ModeBypass
	ModeCRC     = noc.ModeCRC
	ModeSECDED  = noc.ModeSECDED
	ModeDECTED  = noc.ModeDECTED
	ModeRelaxed = noc.ModeRelaxed
)

// Policy is a pre-trained per-router Q-learning policy.
type Policy = core.Policy

// Workload is a time-ordered packet stream.
type Workload = traffic.Generator

// Packet is one injection request of a workload.
type Packet = traffic.Packet

// Option customizes one Simulate call. The constructors are WithPolicy,
// WithRouterSummaries, WithObserver, and WithShards.
type Option = core.RunOption

// Observer is anything that attaches telemetry to a network before the
// first cycle (the telemetry package's Recorder and NetworkTracer both
// qualify). Hooks installed this way fire from a single goroutine even
// on sharded runs.
type Observer = core.Observer

// RunOutput is everything a Simulate call produces; Routers is non-nil
// only when WithRouterSummaries was given.
type RunOutput = core.RunOutput

// WithPolicy deploys a pre-trained policy (TechIntelliNoC only).
func WithPolicy(p *Policy) Option { return core.WithPolicy(p) }

// WithRouterSummaries requests per-router summaries in RunOutput.Routers
// for heatmaps and hotspot analysis.
func WithRouterSummaries() Option { return core.WithRouterSummaries() }

// WithObserver attaches a telemetry observer (flight recorder, trace
// exporter, metrics bridge) to the run. May be repeated.
func WithObserver(o Observer) Option { return core.WithObserver(o) }

// WithShards steps the mesh with n parallel shards. Results are
// bit-identical at any shard count — the knob trades goroutines for
// wall-clock only; 0 or 1 means one shard, with no worker goroutines.
func WithShards(n int) Option { return core.WithShards(n) }

// Simulate runs one technique over one workload. It replaces the
// Run/RunDetailed pair: a nil ctx (or context.Background()) runs to
// completion; a cancelable ctx stops the run early and returns the
// partial Result together with an error wrapping ctx.Err().
//
//	out, err := intellinoc.Simulate(ctx, intellinoc.TechIntelliNoC,
//	    intellinoc.SimConfig{}, gen,
//	    intellinoc.WithRouterSummaries(), intellinoc.WithShards(4))
func Simulate(ctx context.Context, tech Technique, sim SimConfig, gen Workload, opts ...Option) (RunOutput, error) {
	return core.Simulate(ctx, tech, sim, gen, opts...)
}

// RouterSummary is one router's slice of a run: temperature, wear, MTTF,
// energy and forwarded traffic.
type RouterSummary = noc.RouterSummary

// Pretrain trains an IntelliNoC policy on the blackscholes workload model
// (the paper's pre-training benchmark).
func Pretrain(sim SimConfig, epochs, packetsPerEpoch int) (*Policy, error) {
	return core.Pretrain(sim, epochs, packetsPerEpoch)
}

// PretrainTechnique is Pretrain generalized over the RL techniques
// (TechIntelliNoCBuf trains the buffer domain too) and warm starting: a
// non-nil warm policy seeds training from its tables instead of zero-Q
// agents.
func PretrainTechnique(tech Technique, sim SimConfig, epochs, packetsPerEpoch int, warm *Policy) (*Policy, error) {
	return core.PretrainTechnique(tech, sim, epochs, packetsPerEpoch, warm)
}

// LoadPolicy reads a pre-trained policy previously written with
// Policy.Save — snapshot format v2 (multi-domain, schema-tagged) or the
// legacy v1 single-agent files — so expensive training runs can be reused
// across sessions.
func LoadPolicy(r io.Reader) (*Policy, error) { return core.LoadPolicy(r) }

// PolicyStore is a digest-keyed directory of pre-trained policies (the
// policy zoo); see NewPolicyStore.
type PolicyStore = core.PolicyStore

// NewPolicyStore opens (creating if needed) a policy zoo rooted at dir.
func NewPolicyStore(dir string) (*PolicyStore, error) { return core.NewPolicyStore(dir) }

// ParsecBenchmarks returns the ten evaluation benchmark names.
func ParsecBenchmarks() []string { return traffic.ParsecBenchmarks() }

// ParsecWorkload builds the Netrace-substitute workload model for one
// PARSEC benchmark (see DESIGN.md for the substitution rationale).
func ParsecWorkload(name string, sim SimConfig, packets int) (Workload, error) {
	return core.ParsecWorkload(name, sim, packets)
}

// SyntheticConfig configures a classic synthetic traffic pattern.
type SyntheticConfig = traffic.SyntheticConfig

// Synthetic traffic patterns.
const (
	Uniform       = traffic.Uniform
	Transpose     = traffic.Transpose
	BitComplement = traffic.BitComplement
	BitReverse    = traffic.BitReverse
	Shuffle       = traffic.Shuffle
	Tornado       = traffic.Tornado
	Neighbor      = traffic.Neighbor
	Hotspot       = traffic.Hotspot
)

// SyntheticWorkload builds a synthetic pattern workload.
func SyntheticWorkload(cfg SyntheticConfig) (Workload, error) {
	return traffic.NewSynthetic(cfg)
}

// RouterArea returns the per-router silicon area breakdown of a technique
// (the paper's Table 2).
func RouterArea(tech Technique) power.AreaBreakdown {
	return power.Area(tech.AreaConfig())
}
