package main

// metric describes one reported number. The end-to-end and per-layer
// tables below are the benchmark's interface: every run prints every
// metric of the table its mode selects, on every workload, and
// BENCHMARK.json lists the same names, units and directions (a test
// keeps the two in step).
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric a per-layer metric should move
	// ("" for reported-only numbers and model checks).
	Moves string
}

// endToEnd is what a user of the simulator, the suite or the daemon
// sees, measured with tracing off. Each metric is measured on every
// workload; README.md says what it means on each.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "baseline_cycles_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "intellinoc_cycles_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "suite_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "miss_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "miss_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer is what the traced run reports. A layer the workload does not
// reach from the benchmark's own calls reads 0 there.
var perLayer = []metric{
	{Name: "traffic.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "traffic.next_ns_per_packet", Unit: "ns", Better: "lower", Moves: "baseline_cycles_per_s"},
	{Name: "traffic.packets", Unit: "count", Better: "higher"},
	{Name: "core.pretrain_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "noc.new_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "noc.detailed_cycles", Unit: "count", Better: "lower", Moves: "baseline_cycles_per_s"},
	{Name: "noc.ff_cycles", Unit: "count", Better: "higher", Moves: "baseline_cycles_per_s"},
	{Name: "noc.ff_cycle_share", Unit: "ratio", Better: "higher", Moves: "baseline_cycles_per_s"},
	{Name: "noc.step_ns_per_cycle", Unit: "ns", Better: "lower", Moves: "baseline_cycles_per_s"},
	{Name: "noc.ff_ns_per_cycle", Unit: "ns", Better: "lower", Moves: "baseline_cycles_per_s"},
	{Name: "noc.window_ns", Unit: "ns", Better: "lower", Moves: "intellinoc_cycles_per_s"},
	{Name: "noc.sharded_step_ns_per_cycle", Unit: "ns", Better: "lower", Moves: "noc.sharded_cycles_per_s"},
	{Name: "noc.sharded_cycles_per_s", Unit: "1/s", Better: "higher"},
	{Name: "noc.allocs_per_cycle", Unit: "count", Better: "lower", Moves: "baseline_cycles_per_s"},
	{Name: "noc.flits_per_cycle", Unit: "flits/cycle", Better: "higher"},
	{Name: "rl.decide_ns", Unit: "ns", Better: "lower", Moves: "intellinoc_cycles_per_s"},
	{Name: "rl.decisions", Unit: "count", Better: "lower", Moves: "intellinoc_cycles_per_s"},
	{Name: "harness.run_ms_sum", Unit: "ms", Better: "lower", Moves: "suite_wall_s"},
	{Name: "harness.pretrain_ms_sum", Unit: "ms", Better: "lower", Moves: "suite_wall_s"},
	{Name: "harness.utilization", Unit: "ratio", Better: "higher", Moves: "suite_wall_s"},
	{Name: "experiments.assemble_ms", Unit: "ms", Better: "lower", Moves: "suite_wall_s"},
	{Name: "service.submit_ms", Unit: "ms", Better: "lower", Moves: "service.hit_p50_ms"},
	{Name: "service.overhead_ms", Unit: "ms", Better: "lower", Moves: "miss_p50_ms"},
	{Name: "service.hit_ratio", Unit: "ratio", Better: "higher", Moves: "jobs_per_s"},
	{Name: "service.store_mb", Unit: "MiB", Better: "lower", Moves: "jobs_per_s"},
	{Name: "service.hit_p50_ms", Unit: "ms", Better: "lower", Moves: "jobs_per_s"},
	{Name: "service.hit_p90_ms", Unit: "ms", Better: "lower", Moves: "jobs_per_s"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
}
