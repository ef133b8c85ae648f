package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), the definition the bounds are checked with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}

// steadyRuns is the number of runs in each set of the steadiness mode.
const steadyRuns = 10

// steadiness runs two independent sets of steadyRuns runs of every
// workload in BENCHMARK.json, each run a fresh process on the same seed,
// so the two sets differ only by host noise, as a comparison of two trees
// on one seed does. It reports per metric each set's median and
// quartiles, the quartile spread as a share of the median, and whether
// the second median stays within the metric's bound of the first. It
// fails when any spread (setup_s aside) or any median shift exceeds its
// bound.
func steadiness(root string, seed int64, stdout, stderr io.Writer) error {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	const sets = 2
	// vals[set][workload][metric]
	vals := [sets]map[string]map[string][]float64{}
	for set := 0; set < sets; set++ {
		vals[set] = map[string]map[string][]float64{}
		for _, w := range names {
			vals[set][w] = map[string][]float64{}
			for i := 0; i < steadyRuns; i++ {
				res, err := runOnce(exe, w, seed, float64(bf.RunSeconds), 0, stderr)
				if err != nil {
					return fmt.Errorf("%s set %d run %d: %w", w, set+1, i+1, err)
				}
				for name, mv := range res.Metrics {
					vals[set][w][name] = append(vals[set][w][name], mv.Value)
				}
				fmt.Fprintf(stderr, "steady: set %d %s run %d done\n", set+1, w, i+1)
			}
		}
	}

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tset1 q1\tmedian\tq3\tspread\tset2 q1\tmedian\tq3\tspread\tshift\tbound\tok\t")
	steady := true
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			var row [sets][3]float64
			var spread [sets]float64
			for set := 0; set < sets; set++ {
				q1, q2, q3 := quartiles(vals[set][w][m.Name])
				row[set] = [3]float64{q1, q2, q3}
				spread[set] = (q3 - q1) / q2
			}
			// shift > 0 means the second set reads worse.
			shift := (row[1][1] - row[0][1]) / row[0][1]
			if m.Better == "higher" {
				shift = -shift
			}
			ok := shift <= m.Bound
			if m.Name != "setup_s" {
				ok = ok && spread[0] <= m.Bound && spread[1] <= m.Bound
			}
			steady = steady && ok
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.1f%%\t%.4g\t%.4g\t%.4g\t%.1f%%\t%+.1f%%\t%.0f%%\t%v\t\n",
				w, m.Name, row[0][0], row[0][1], row[0][2], 100*spread[0],
				row[1][0], row[1][1], row[1][2], 100*spread[1], 100*shift, 100*m.Bound, ok)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if !steady {
		return fmt.Errorf("the two sets do not agree within the bounds of BENCHMARK.json")
	}
	fmt.Fprintln(stdout, "steady: every metric agrees within its bound")
	return nil
}

// runAll runs every workload, each in a fresh process, and prints every
// metric of the mode with its unit in one table.
func runAll(seed int64, seconds float64, trace int, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	table := endToEnd
	if trace == 1 {
		table = perLayer
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit")
	var failed []string
	for _, w := range workloads {
		res, err := runOnce(exe, w.name, seed, seconds, trace, stderr)
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
			continue
		}
		fmt.Fprintf(tw, "%s\toperations\t%d attempted, %d failed\t\n", w.name, res.Attempted, res.Failed)
		for _, m := range table {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", w.name, m.Name, res.Metrics[m.Name].Value, m.Unit)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, "; "))
	}
	return nil
}

// runOnce runs one workload in a fresh process and parses its last line.
func runOnce(exe, wl string, seed int64, seconds float64, trace int, stderr io.Writer) (result, error) {
	var res result
	cmd := exec.Command(exe, "--workload", wl, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return res, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, err
	}
	if !res.Correct {
		return res, fmt.Errorf("run not correct: %d of %d failed", res.Failed, res.Attempted)
	}
	for name, mv := range res.Metrics {
		if math.IsNaN(mv.Value) {
			return res, fmt.Errorf("metric %s is NaN", name)
		}
	}
	return res, nil
}
