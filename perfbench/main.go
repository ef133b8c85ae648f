// Command perfbench is the repository's benchmark. One process runs one
// workload for a fixed time, checks that every simulated result is right,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a traced run) as the last line of standard output:
//
//	bash perfbench/run.sh --workload parsec8x8 --seed 1 --seconds 20 --trace 0
//
// The -steady mode re-runs the binary in two independent sets and prints
// each set's median and quartiles per metric and whether the two agree
// within the bounds in BENCHMARK.json. README.md documents the workloads,
// the metrics and what is left out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs. Why each was chosen
// is in BENCHMARK.json and README.md.
type workload struct {
	name string
	run  func(ctx context.Context, rc runConfig) *report
}

// workloads are the benchmark's inputs, in BENCHMARK.json order.
var workloads = []workload{
	{name: "parsec8x8", run: runParsec},
	{name: "uniform32x32", run: runUniform},
	{name: "quick-suite", run: runQuickSuite},
	{name: "daemon", run: runDaemon},
}

// runConfig is what a workload gets from the command line.
type runConfig struct {
	seed   int64
	budget time.Duration // measuring time; at least one pass always runs
	trace  bool
	// tiny shrinks every input so the tests run in seconds.
	tiny bool
	// root is the repository checkout (golden files, scratch space).
	root string
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
}

func newReport() *report {
	r := &report{e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, m := range perLayer {
		r.layer[m.Name] = 0 // a layer the workload does not reach reads 0
	}
	return r
}

// fail counts one failed operation and keeps its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// toResult selects the metric table of the run's mode. A metric the
// workload did not set, or a non-finite one, is a benchmark bug and
// fails the run.
func (r *report) toResult(trace bool) result {
	table, src := endToEnd, r.e2e
	if trace {
		table, src = perLayer, r.layer
	}
	out := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range table {
		v, ok := src[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problems = append(r.problems, fmt.Sprintf("metric %s missing or not finite (%v)", m.Name, v))
			out.Failed++
			v = 0
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = max(out.Failed, 1)
	}
	out.Correct = out.Failed == 0
	return out
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+", or all (each in a fresh process, printed as one table)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measuring time of one run")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics; the single-network workloads then also run a traced simulation next to each untraced one")
	steady := fs.Bool("steady", false, "run two independent sets of ten runs of every workload at -seed and compare them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *steady {
		fmt.Fprintln(stdout, "# host", hostLine(root, *seed, "steady", 0))
		if err := steadiness(root, *seed, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := findWorkload(*name)
	if !ok && *name != "all" {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	if _, err := os.Stat("testdata/golden/quick.digests"); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root:", err)
		return 2
	}
	if *name == "all" {
		fmt.Fprintln(stdout, "# host", hostLine(root, *seed, "all", *trace))
		if err := runAll(*seed, *seconds, *trace, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	// The benchmark runs on at most two CPUs wherever it runs, so numbers
	// from a wider machine are not silently better.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	rc := runConfig{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, root: root}
	fmt.Fprintln(stdout, "# host", hostLine(root, *seed, wl.name, *trace))

	// A hard deadline turns a hung simulation into a failed run instead
	// of a hung benchmark. The last pass starts before the budget ends and
	// may run each simulation twice (traced), so the run gets the budget
	// again and a minute on top.
	ctx, cancel := context.WithTimeout(context.Background(), 2*rc.budget+time.Minute)
	defer cancel()
	rep := wl.run(ctx, rc)
	rep.e2e["peak_rss_mb"] = peakRSSMiB()
	res := rep.toResult(rc.trace)
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "perfbench: FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle of xs (the mean of the middle two for an
// even count), or NaN for none.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// timeSetup runs fn reps times and returns the median CPU time in
// seconds; setup is short and noisy, so one sample would not repeat.
// Each rep starts from a collected heap, so no collection left over from
// earlier work is charged to it.
func timeSetup(reps int, fn func() error) (float64, error) {
	var samples []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := cpuTime()
		if err := fn(); err != nil {
			return 0, err
		}
		samples = append(samples, (cpuTime() - start).Seconds())
	}
	return median(samples), nil
}
