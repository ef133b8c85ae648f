package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"intellinoc/internal/core"
	"intellinoc/internal/traffic"
)

func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{
		"-smoke", "-strategy", "all", "-workers", "3",
		"-qos-avg-latency", "25", "-frontier", "f.json", "-check",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !o.smoke || o.strategy != "all" || o.workers != 3 ||
		o.qosAvgLatency != 25 || o.frontierPath != "f.json" || !o.check {
		t.Fatalf("parsed options: %+v", o)
	}

	for _, bad := range [][]string{
		{"-strategy", "annealing"},
		{"-resume"}, // requires -results
		{"positional"},
	} {
		if _, err := parseArgs(bad, io.Discard); err == nil {
			t.Errorf("args %v should fail", bad)
		}
	}
}

func TestLatticeFromFlags(t *testing.T) {
	o, err := parseArgs([]string{
		"-mesh", "4,8", "-techs", "secded,IntelliNoC", "-patterns", "uniform,transpose",
		"-rates", "0.02,0.1", "-vcs", "0,2", "-packets", "500", "-seed", "9",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := lattice(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat.Meshes) != 2 || lat.Meshes[1] != 8 {
		t.Fatalf("meshes = %v", lat.Meshes)
	}
	// Technique names parse case-insensitively.
	if len(lat.Techniques) != 2 || lat.Techniques[0] != core.TechSECDED || lat.Techniques[1] != core.TechIntelliNoC {
		t.Fatalf("techniques = %v", lat.Techniques)
	}
	if len(lat.Patterns) != 2 || lat.Patterns[1] != traffic.Transpose {
		t.Fatalf("patterns = %v", lat.Patterns)
	}
	if lat.Size() != 2*2*2*2*2 {
		t.Fatalf("size = %d", lat.Size())
	}
	if lat.Seed != 9 || lat.Packets != 500 {
		t.Fatalf("seed/packets = %d/%d", lat.Seed, lat.Packets)
	}

	if _, err := parseArgs([]string{"-mesh", "4x4"}, io.Discard); err != nil {
		t.Fatal(err) // parse error surfaces at lattice(), not parseArgs
	}
	o2, _ := parseArgs([]string{"-mesh", "4x4"}, io.Discard)
	if _, err := lattice(o2); err == nil {
		t.Fatal("bad -mesh accepted")
	}
	o3, _ := parseArgs([]string{"-techs", "hamming"}, io.Discard)
	if _, err := lattice(o3); err == nil {
		t.Fatal("unknown technique accepted")
	}
}

// TestSmokeGoldenFrontier regenerates the CI smoke frontier in-process
// (the same -smoke -strategy all invocation the explore-smoke CI job
// uses) and compares it byte for byte against the committed golden, so
// `go test ./...` catches frontier drift without waiting for CI.
// Regenerate with:
//
//	explore -smoke -strategy all -frontier f.json &&
//	regress -frontier f.json -golden testdata/golden/explore-smoke.frontier.json -update
func TestSmokeGoldenFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke exploration in -short mode")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "explore-smoke.frontier.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "frontier.json")
	o, err := parseArgs([]string{"-smoke", "-strategy", "all", "-progress=false", "-check", "-frontier", out}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run(nil, o, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("smoke frontier drifted from testdata/golden/explore-smoke.frontier.json:\n%s", got)
	}
}

// TestRunWritesTelemetryDir drives -telemetry-dir on the smoke lattice:
// every executed evaluation is stored exactly once, so the executed-jobs
// counter equals the results file's line count, and the timeline names
// the explore harness and its worker lanes.
func TestRunWritesTelemetryDir(t *testing.T) {
	dir := t.TempDir()
	results, tdir := filepath.Join(dir, "w2.jsonl"), filepath.Join(dir, "telemetry")
	o, err := parseArgs([]string{"-smoke", "-strategy", "all", "-workers", "2", "-progress=false",
		"-results", results, "-telemetry-dir", tdir, "-frontier", filepath.Join(dir, "frontier.json")}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if err := run(nil, o, io.Discard, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	raw, err := os.ReadFile(results)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(raw, []byte("\n"))
	prom, err := os.ReadFile(filepath.Join(tdir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\nexplore_jobs_executed_total %d\n", lines); lines == 0 || !strings.Contains(string(prom), want) {
		t.Fatalf("metrics.prom missing %q:\n%s", want, prom)
	}
	tl, err := os.ReadFile(filepath.Join(tdir, "timeline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"explore harness"`, `"worker 0"`, `"ph":"X"`} {
		if !strings.Contains(string(tl), want) {
			t.Fatalf("timeline.json missing %q", want)
		}
	}
}
