package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

type payload struct {
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

func mkJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{
			Digest: fmt.Sprintf("job-%03d", i),
			Kind:   "run",
			Name:   fmt.Sprintf("test/job%d", i),
			Seed:   int64(i),
			Run: func() (any, error) {
				return payload{Value: float64(i) * 1.5, N: i}, nil
			},
		}
	}
	return jobs
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	jobs := mkJobs(17)
	out1, err := Run(jobs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	out8, err := Run(jobs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(out1) != 17 || len(out8) != 17 {
		t.Fatalf("lengths %d / %d, want 17", len(out1), len(out8))
	}
	for d, p1 := range out1 {
		if string(p1) != string(out8[d]) {
			t.Fatalf("digest %s: %s vs %s", d, p1, out8[d])
		}
	}
}

func TestRunDeduplicatesByDigest(t *testing.T) {
	var calls atomic.Int32
	job := Job{Digest: "same", Name: "dup", Run: func() (any, error) {
		calls.Add(1)
		return payload{}, nil
	}}
	out, err := Run([]Job{job, job, job}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || calls.Load() != 1 {
		t.Fatalf("want 1 result from 1 call, got %d results, %d calls", len(out), calls.Load())
	}
}

func TestPanicIsolationAndRetry(t *testing.T) {
	var tries atomic.Int32
	flaky := Job{Digest: "flaky", Name: "flaky", Run: func() (any, error) {
		if tries.Add(1) == 1 {
			panic("transient blow-up")
		}
		return payload{Value: 42}, nil
	}}
	out, err := Run([]Job{flaky}, Options{Workers: 2, Retries: 1})
	if err != nil {
		t.Fatalf("retry should have recovered the panic: %v", err)
	}
	var p payload
	if err := json.Unmarshal(out["flaky"], &p); err != nil || p.Value != 42 {
		t.Fatalf("payload %s err %v", out["flaky"], err)
	}
	if tries.Load() != 2 {
		t.Fatalf("attempts = %d, want 2", tries.Load())
	}
}

func TestPersistentPanicFailsWithJobName(t *testing.T) {
	bad := Job{Digest: "bad", Name: "always-panics", Run: func() (any, error) {
		panic("broken")
	}}
	_, err := Run([]Job{bad}, Options{Workers: 1, Retries: 2})
	if err == nil {
		t.Fatal("want error from persistent panic")
	}
	if !strings.Contains(err.Error(), "always-panics") || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error should name the job and the panic: %v", err)
	}
}

func TestErrorStopsDispatchButKeepsFinishedRecords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "res.jsonl")
	st, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{Digest: "ok", Name: "ok", Run: func() (any, error) { return payload{Value: 1}, nil }},
		{Digest: "boom", Name: "boom", Run: func() (any, error) {
			return nil, fmt.Errorf("deliberate")
		}},
	}
	_, err = Run(jobs, Options{Workers: 1, Retries: 0, Store: st})
	if err == nil {
		t.Fatal("want error")
	}
	st.Close()
	recs, skipped, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped %d lines", skipped)
	}
	if _, ok := recs["ok"]; !ok {
		t.Fatal("successful record must survive a later failure")
	}
}

// TestRunFailFast pins Run's batch contract on one worker: the first job
// to exhaust its retries stops dispatch before any later job starts, and
// Run returns that job's own error rather than a cancellation error.
func TestRunFailFast(t *testing.T) {
	path := filepath.Join(t.TempDir(), "res.jsonl")
	st, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	errBoom := errors.New("deliberate boom")
	var ran, observed atomic.Int32
	ok := func(name string) Job {
		return Job{Digest: name, Name: name, Run: func() (any, error) {
			ran.Add(1)
			return payload{}, nil
		}}
	}
	jobs := []Job{
		{Digest: "boom", Name: "boom", Run: func() (any, error) { return nil, errBoom }},
		ok("ok1"), ok("ok2"),
	}
	_, err = Run(jobs, Options{Workers: 1, Retries: -1, Store: st,
		Observer: func(Record) { observed.Add(1) }})
	if !errors.Is(err, errBoom) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want boom's own error, got %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("fail-fast must not surface as a cancellation: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 0 || observed.Load() != 0 || len(recs) != 0 {
		t.Fatalf("jobs after the failure ran: %d runs, %d observed, %d streamed",
			ran.Load(), observed.Load(), len(recs))
	}
}

func TestStreamAndResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "res.jsonl")

	st, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	jobs := mkJobs(6)
	out, err := Run(jobs, Options{Workers: 3, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	recs, skipped, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(recs) != 6 {
		t.Fatalf("got %d records (%d skipped)", len(recs), skipped)
	}
	for d, raw := range out {
		rec := recs[d]
		if string(rec.Payload) != string(raw) {
			t.Fatalf("digest %s: stream %s vs memory %s", d, rec.Payload, raw)
		}
		if rec.Attempts != 1 || rec.WallMS < 0 {
			t.Fatalf("bad record metadata: %+v", rec)
		}
	}

	// Simulate a kill mid-write: truncate to half the records plus a
	// partial trailing line, then resume-append the rest.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	partial := strings.Join(lines[:3], "") + `{"digest":"job-9`
	if err := os.WriteFile(path, []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err = LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || skipped != 1 {
		t.Fatalf("after truncation: %d records, %d skipped", len(recs), skipped)
	}

	st2, err := OpenStore(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var remaining []Job
	for _, j := range jobs {
		if _, done := recs[j.Digest]; !done {
			remaining = append(remaining, j)
		}
	}
	if _, err := Run(remaining, Options{Workers: 2, Store: st2}); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	// The file now holds the partial line plus all six records; a
	// resumed load must see every payload byte-identical to the
	// uninterrupted run.
	recs, _, err = LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("resumed file has %d records", len(recs))
	}
	for d, raw := range out {
		if string(recs[d].Payload) != string(raw) {
			t.Fatalf("digest %s diverged after resume", d)
		}
	}
}

func TestLoadRecordsMissingFile(t *testing.T) {
	recs, skipped, err := LoadRecords(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || skipped != 0 || len(recs) != 0 {
		t.Fatalf("missing file must load as empty: %v %d %d", err, skipped, len(recs))
	}
}

func TestProgressOutput(t *testing.T) {
	var sb strings.Builder
	p := NewProgress(&sb, "phase")
	base := time.Unix(0, 0)
	tick := 0
	p.now = func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * 700 * time.Millisecond)
	}
	p.begin(3, 2)
	p.jobDone(time.Second)
	p.jobDone(time.Second)
	p.jobDone(time.Second)
	p.finish()
	out := sb.String()
	if !strings.Contains(out, "3/3 jobs") || !strings.Contains(out, "phase:") {
		t.Fatalf("progress output missing fields:\n%s", out)
	}
}

// TestRunContextCancellation cancels a pool mid-run: dispatch must stop,
// Run must return an error wrapping context.Canceled, records finished
// before the cancellation must survive in the output stream, and every
// worker goroutine must be gone when Run returns.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	jobs := make([]Job, 16)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			Digest: fmt.Sprintf("cancel-%d", i), Kind: "run", Name: fmt.Sprintf("job-%d", i),
			Run: func() (any, error) {
				if started.Add(1) == 1 {
					// The first job finishes normally, so the pool has a
					// completed record when the cancellation lands.
					return payload{N: i}, nil
				}
				cancel() // cancel while this job is in flight
				<-ctx.Done()
				return nil, ctx.Err()
			},
		}
	}

	before := runtime.NumGoroutine()
	_, err := Run(jobs, Options{Workers: 2, Retries: -1, Ctx: ctx})
	if err == nil {
		t.Fatal("Run returned nil error after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("goroutines leaked: %d before Run, %d after", before, after)
	}
}

// TestRunContextNilBehavesAsBefore pins that a nil Ctx is the legacy
// uncancellable path.
func TestRunContextNilBehavesAsBefore(t *testing.T) {
	out, err := Run(mkJobs(4), Options{Workers: 2, Ctx: nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("got %d results, want 4", len(out))
	}
}
