package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"intellinoc/internal/harness"
)

// observeSample feeds a tap one run, one pre-training pass, and one run
// that took three attempts.
func observeSample(tap *JobTap) {
	tap.Observe(harness.Record{Digest: "d1", Kind: "run", Name: "run-1", WallMS: 4, Attempts: 1})
	tap.Observe(harness.Record{Digest: "d2", Kind: "pretrain", Name: "pretrain-1", WallMS: 20, Attempts: 1})
	tap.Observe(harness.Record{Digest: "d3", Kind: "run", Name: "run-2", WallMS: 7, Attempts: 3})
}

func TestJobTapMetrics(t *testing.T) {
	tap := NewJobTap(NewRegistry(), "probe", "probe harness")
	observeSample(tap)
	dir := t.TempDir()
	if err := tap.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"\nprobe_jobs_executed_total 3\n",
		"\nprobe_pretrain_jobs_total 1\n",
		"\nprobe_job_retries_total 2\n",
		"\nprobe_job_wall_ms_count 3\n",
		"probe_job_wall_ms_bucket{le=\"300000\"} 3\n",
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("metrics.prom missing %q:\n%s", want, prom)
		}
	}
}

// The timeline names its process and packs the spans onto "worker N"
// lanes; an empty timeline name keeps no spans and writes no trace.
func TestJobTapTimeline(t *testing.T) {
	tap := NewJobTap(NewRegistry(), "probe", "probe harness")
	observeSample(tap)
	dir := t.TempDir()
	if err := tap.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "timeline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	var process string
	var spans, lanes int
	for _, e := range tr.TraceEvents {
		switch {
		case e.Name == "process_name":
			process, _ = e.Args["name"].(string)
		case e.Name == "thread_name":
			if name, _ := e.Args["name"].(string); strings.HasPrefix(name, "worker ") {
				lanes++
			}
		case e.Phase == "X":
			spans++
		}
	}
	if process != "probe harness" || spans != 3 || lanes == 0 {
		t.Fatalf("timeline: process %q, %d spans, %d worker lanes; want \"probe harness\", 3, >0", process, spans, lanes)
	}

	quiet := NewJobTap(NewRegistry(), "quiet", "")
	observeSample(quiet)
	if len(quiet.spans) != 0 {
		t.Fatalf("a tap without a timeline kept %d spans", len(quiet.spans))
	}
	dir = t.TempDir()
	if err := quiet.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "timeline.json")); !os.IsNotExist(err) {
		t.Fatalf("a tap without a timeline wrote timeline.json (stat err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "metrics.prom")); err != nil {
		t.Fatal(err)
	}
}
