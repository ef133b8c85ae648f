package main

import (
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"intellinoc/internal/experiments"
	"intellinoc/internal/harness"
	"intellinoc/internal/noc"
	"intellinoc/internal/traffic"
)

// tinyConfig runs one pass of a workload at test size.
func tinyConfig(t *testing.T, trace bool) runConfig {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{seed: 3, budget: time.Nanosecond, trace: trace, tiny: true, root: root}
}

func TestEveryMetricOnEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			rep := wl.run(context.Background(), tinyConfig(t, trace))
			rep.e2e["peak_rss_mb"] = peakRSSMiB()
			res := rep.toResult(trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					wl.name, trace, res.Correct, res.Attempted, res.Failed, rep.problems)
			}
			table := endToEnd
			if trace {
				table = perLayer
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, trace, len(res.Metrics), len(table))
			}
			for _, m := range table {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, m.Name, got.Value)
				}
			}
		}
	}
}

// firstPackets draws the head of a generator.
func firstPackets(t *testing.T, gen traffic.Generator, err error) []traffic.Packet {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var out []traffic.Packet
	for i := 0; i < 50; i++ {
		p, ok := gen.Next()
		if !ok {
			break
		}
		out = append(out, p)
	}
	return out
}

func TestSeedChangesInputs(t *testing.T) {
	for _, mk := range []func(runConfig) *simWorkload{parsecWorkload, uniformWorkload} {
		var heads [3][]traffic.Packet
		for i, seed := range []int64{1, 1, 2} {
			w := mk(runConfig{seed: seed})
			gen, err := w.newGen()
			heads[i] = firstPackets(t, gen, err)
		}
		if !reflect.DeepEqual(heads[0], heads[1]) {
			t.Errorf("same seed, different packets")
		}
		if reflect.DeepEqual(heads[0], heads[2]) {
			t.Errorf("seeds 1 and 2 generate the same packets")
		}
	}

	if reflect.DeepEqual(daemonOrder(20, 1), daemonOrder(20, 2)) {
		t.Errorf("seeds 1 and 2 give the same daemon submission order")
	}
	if !reflect.DeepEqual(daemonOrder(20, 1), daemonOrder(20, 1)) {
		t.Errorf("same seed, different daemon submission order")
	}
	for _, j := range daemonOrder(20, 5) {
		if j.spec < 0 || j.spec >= 20 {
			t.Fatalf("job for spec %d of 20", j.spec)
		}
	}
}

func TestDaemonSpecsFollowSeed(t *testing.T) {
	suite, err := experiments.NewSuite(quickSuiteOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	base := quickSpecs(suite)
	a, b := daemonSpecs(base, 1, 4), daemonSpecs(base, 2, 4)
	if len(a) != len(base)+4 {
		t.Fatalf("%d specs, want %d", len(a), len(base)+4)
	}
	seen := map[string]bool{}
	for _, ls := range a {
		d := ls.Spec.Digest()
		if seen[d] {
			t.Errorf("duplicate spec %s", ls.Name)
		}
		seen[d] = true
	}
	if a[len(a)-1].Spec.Digest() == b[len(b)-1].Spec.Digest() {
		t.Errorf("seeds 1 and 2 add the same extra spec")
	}
}

func TestPerturbedDigestFails(t *testing.T) {
	res := noc.Result{Cycles: 1000, FlitsDelivered: 4000, AvgLatency: 21.5, MTTFSeconds: math.Inf(1)}
	res.ModeBreakdown[2] = 7
	ref := resultDigest(res)
	if resultDigest(res) != ref {
		t.Fatal("digest is not deterministic")
	}
	bumped := res
	bumped.AvgLatency = math.Nextafter(res.AvgLatency, math.Inf(1))
	moded := res
	moded.ModeBreakdown[2]++
	agree := agreement{}
	if !agree.check("SECDED", ref) {
		t.Fatal("first digest must set the reference")
	}
	for name, r := range map[string]noc.Result{"float last bit": bumped, "mode breakdown": moded} {
		if d := resultDigest(r); agree.check("SECDED", d) {
			t.Errorf("%s: perturbed result digest %s agrees with %s", name, d, ref)
		}
	}

	// A record whose payload differs from the golden digests is a failure.
	golden, err := loadGolden(tinyConfig(t, false).root)
	if err != nil {
		t.Fatal(err)
	}
	var digest string
	for d := range golden {
		digest = d
		break
	}
	rec := harness.Record{Digest: digest, Kind: "run", Payload: json.RawMessage(`{"Cycles":1}`)}
	rep := newReport()
	if checkSuiteRecords(rep, []harness.Record{rec}, golden, true) || rep.failed != 1 {
		t.Errorf("perturbed payload passed the golden gate (failed=%d)", rep.failed)
	}
	if res := rep.toResult(false); res.Correct {
		t.Errorf("a run with a failed operation reports correct")
	}
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf, err := readBenchmarkFile(tinyConfig(t, false).root)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the endToEnd table")
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	// The per-layer map to end-to-end metrics lives in README.md, not in
	// BENCHMARK.json.
	var layers []metric
	for _, m := range perLayer {
		m.Moves = ""
		layers = append(layers, m)
	}
	if !reflect.DeepEqual(bf.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer differs from the perLayer table")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
