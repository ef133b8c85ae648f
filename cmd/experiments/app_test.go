package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"intellinoc/internal/harness"
	"intellinoc/internal/telemetry"
)

func TestParseArgsDefaults(t *testing.T) {
	o, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.packets != 60000 || o.quick || o.seed != 1 || o.workers <= 0 || !o.progress {
		t.Fatalf("unexpected defaults: %+v", o)
	}
}

func TestParseArgsQuickAndOnly(t *testing.T) {
	o, err := parseArgs([]string{"-quick", "-only", " fig13 , table2 ", "-workers", "3"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !o.quick || o.workers != 3 {
		t.Fatalf("parsed: %+v", o)
	}
	ids := onlyIDs(o.only)
	if len(ids) != 2 || ids[0] != "fig13" || ids[1] != "table2" {
		t.Fatalf("onlyIDs = %v", ids)
	}
}

func TestParseArgsRejectsBadInput(t *testing.T) {
	if _, err := parseArgs([]string{"-nope"}, io.Discard); err == nil {
		t.Fatal("unknown flag must error")
	}
	if _, err := parseArgs([]string{"positional"}, io.Discard); err == nil {
		t.Fatal("positional args must error")
	}
	if _, err := parseArgs([]string{"-resume"}, io.Discard); err == nil {
		t.Fatal("-resume without -results must error")
	}
}

func TestRunRejectsUnknownExperimentName(t *testing.T) {
	o, err := parseArgs([]string{"-only", "fig99", "-progress=false"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	err = run(nil, o, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("want unknown-experiment error naming fig99, got %v", err)
	}
}

func TestRunTable2Only(t *testing.T) {
	dir := t.TempDir()
	md := filepath.Join(dir, "report.md")
	o, err := parseArgs([]string{"-only", "table2", "-md", md, "-progress=false"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(nil, o, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "table2") {
		t.Fatalf("stdout missing table2:\n%s", out.String())
	}
	data, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# IntelliNoC — Reproduced Evaluation", "table2", "## Known divergences"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

// TestRunWritesTelemetryDir drives a tiny suite with -telemetry-dir and
// -telemetry-addr and checks the snapshot files, and that the server is
// gone once run returns (the serve goroutine and listener must not
// outlive the suite; TestTelemetryTapServeShutdown covers the live
// surface itself).
func TestRunWritesTelemetryDir(t *testing.T) {
	dir := t.TempDir()
	tdir := filepath.Join(dir, "telemetry")
	o, err := parseArgs([]string{"-only", "fig18a", "-packets", "600", "-seed", "7",
		"-progress=false", "-telemetry-dir", tdir, "-telemetry-addr", "localhost:0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out, errBuf strings.Builder
	if err := run(nil, o, &out, &errBuf); err != nil {
		t.Fatal(err)
	}

	// The bound address is reported on stderr; after run returns the
	// telemetry server must be shut down, not leaked for the process
	// lifetime.
	var addr string
	for _, line := range strings.Split(errBuf.String(), "\n") {
		if strings.Contains(line, "telemetry: serving") {
			fields := strings.Fields(line)
			addr = fields[len(fields)-1]
		}
	}
	if addr == "" {
		t.Fatalf("stderr missing telemetry server line:\n%s", errBuf.String())
	}
	if resp, err := http.Get("http://" + addr + "/metrics"); err == nil {
		resp.Body.Close()
		t.Fatal("telemetry server still serving after the suite returned")
	}

	prom, err := os.ReadFile(filepath.Join(tdir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE experiments_jobs_executed_total counter",
		"experiments_job_wall_ms_bucket{le=\"+Inf\"}",
		"experiments_job_wall_ms_count",
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("metrics.prom missing %q:\n%s", want, prom)
		}
	}

	tl, err := os.ReadFile(filepath.Join(tdir, "timeline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"traceEvents"`, `"experiment harness"`, `"worker 0"`, `"ph":"X"`} {
		if !strings.Contains(string(tl), want) {
			t.Fatalf("timeline.json missing %q:\n%s", want, tl)
		}
	}
}

// TestTelemetryTapServeShutdown exercises the tap's HTTP surface
// directly: /metrics and /debug/vars live while serving, then a clean
// Shutdown after which the listener refuses connections — the regression
// test for the tap's old leak-forever go http.Serve.
func TestTelemetryTapServeShutdown(t *testing.T) {
	reg := telemetry.NewRegistry()
	tap := telemetry.NewJobTap(reg, "experiments", "experiment harness")
	tap.Observe(harness.Record{Digest: "d1", Kind: "run", Name: "probe", WallMS: 3})

	var errBuf strings.Builder
	ops, err := serveTelemetry(reg, "127.0.0.1:0", &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + ops.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "experiments_jobs_executed_total 1") {
		t.Fatalf("/metrics missing observed job:\n%s", body)
	}
	resp, err = http.Get("http://" + ops.Addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "experiments") {
		t.Fatalf("/debug/vars missing published registry:\n%s", body)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ops.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get("http://" + ops.Addr + "/metrics"); err == nil {
		resp.Body.Close()
		t.Fatal("tap server still serving after Shutdown")
	}
	if errBuf.Len() > 0 {
		t.Fatalf("clean shutdown wrote to the error log: %s", errBuf.String())
	}
}

// TestRunStreamsAndResumes drives the full binary path on a tiny budget:
// stream to JSONL, then rerun with -resume and require a byte-identical
// report with zero jobs re-run.
func TestRunStreamsAndResumes(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "results.jsonl")
	md1 := filepath.Join(dir, "report1.md")
	md2 := filepath.Join(dir, "report2.md")

	base := []string{"-only", "fig18a", "-packets", "600", "-seed", "7", "-progress=false", "-results", jsonl}
	o1, err := parseArgs(append(base, "-md", md1), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(nil, o1, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}

	o2, err := parseArgs(append(base, "-md", md2, "-resume"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(nil, o2, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 run") {
		t.Fatalf("resume should have reused everything:\n%s", out.String())
	}
	r1, err := os.ReadFile(md1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := os.ReadFile(md2)
	if err != nil {
		t.Fatal(err)
	}
	if string(r1) != string(r2) {
		t.Fatal("resumed report is not byte-identical")
	}
}
