package telemetry

import (
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"intellinoc/internal/harness"
)

// JobTap is the one telemetry tap over harness jobs: a harness Observer
// that counts executed records into a metrics registry and, optionally,
// keeps a Chrome-trace timeline of them. cmd/experiments, cmd/explore
// and the daemon all observe their pools through it, so a job metric is
// defined here and nowhere else. Observe is safe for concurrent use from
// worker goroutines, and the tap never feeds back into results.
type JobTap struct {
	reg      *Registry
	timeline string // Chrome-trace process name; "" keeps no spans
	start    time.Time

	executed *Counter
	pretrain *Counter
	retries  *Counter
	wallMS   *Histogram

	mu    sync.Mutex
	spans []Span
}

// NewJobTap registers the job metrics under prefix in reg:
// <prefix>_jobs_executed_total, <prefix>_pretrain_jobs_total,
// <prefix>_job_retries_total and the <prefix>_job_wall_ms histogram.
// timeline names the process of the Chrome trace WriteDir emits; an
// empty timeline keeps no per-job spans, so a long-lived process (the
// daemon) holds no per-job state.
func NewJobTap(reg *Registry, prefix, timeline string) *JobTap {
	return &JobTap{
		reg:      reg,
		timeline: timeline,
		start:    time.Now(),
		executed: reg.Counter(prefix+"_jobs_executed_total", "Harness jobs executed (cache hits excluded)."),
		pretrain: reg.Counter(prefix+"_pretrain_jobs_total", "Executed policy pre-training jobs."),
		retries:  reg.Counter(prefix+"_job_retries_total", "Extra attempts beyond the first, summed over jobs."),
		wallMS: reg.Histogram(prefix+"_job_wall_ms", "Per-executed-job wall time in milliseconds.",
			[]float64{10, 100, 500, 1000, 5000, 15000, 60000, 300000}),
	}
}

// Observe consumes one executed harness record (an Options.Observer).
func (t *JobTap) Observe(rec harness.Record) {
	t.executed.Inc()
	if rec.Kind == "pretrain" {
		t.pretrain.Inc()
	}
	if rec.Attempts > 1 {
		t.retries.Add(uint64(rec.Attempts - 1))
	}
	t.wallMS.Observe(rec.WallMS)
	if t.timeline == "" {
		return
	}
	// The record carries only its duration, so the span's start is
	// reconstructed from the observation time. 1 µs of trace time = 1 µs
	// of wall time here (the job timeline is real time, not sim cycles).
	endUS := float64(time.Since(t.start).Microseconds())
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		Name:     rec.Name,
		Start:    endUS - rec.WallMS*1000,
		Duration: rec.WallMS * 1000,
		Args:     map[string]any{"kind": rec.Kind, "digest": rec.Digest, "attempts": rec.Attempts},
	})
	t.mu.Unlock()
}

// WriteDir snapshots the tap into dir: metrics.prom (Prometheus text of
// the whole registry) and, when the tap keeps a timeline, timeline.json
// (a Chrome trace of the job schedule, packed greedily onto "worker N"
// lanes).
func (t *JobTap) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "metrics.prom"), t.reg.WritePrometheus); err != nil {
		return err
	}
	if t.timeline == "" {
		return nil
	}
	tr := NewTrace()
	tr.SetProcessName(1, t.timeline)
	t.mu.Lock()
	tr.AddSpans(1, "job", t.spans)
	t.mu.Unlock()
	return writeFile(filepath.Join(dir, "timeline.json"), tr.WriteJSON)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
