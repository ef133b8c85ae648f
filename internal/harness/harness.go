// Package harness runs a set of independent, deterministically-seeded
// jobs on a bounded worker pool with panic isolation and per-job retry,
// streaming every finished job as a JSON-lines record so that a killed
// run can be resumed by skipping already-recorded job digests.
//
// The harness is the substrate under cmd/experiments: each simulation
// run (and each policy pre-training pass) becomes one Job, keyed by a
// content digest of its full configuration. Because jobs are pure
// functions of their spec, a results file doubles as both a crash-resume
// checkpoint and a regression artifact (see cmd/regress).
package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"time"
)

// Job is one unit of work. Digest must be a content hash of everything
// that determines the result; two jobs with equal digests are assumed
// interchangeable (the runner executes only the first).
type Job struct {
	// Digest uniquely identifies the job's full configuration.
	Digest string
	// Kind groups jobs for reporting ("run", "pretrain", ...).
	Kind string
	// Name is a human label for progress and error messages.
	Name string
	// Seed records the job's PRNG seed in the results stream.
	Seed int64
	// Priority orders dispatch: higher-priority jobs are executed first
	// (ties keep submission order). Pool keeps a live priority queue, so
	// a high-priority submission jumps ahead of queued lower-priority
	// work (e.g. a successive-halving promotion preempting fresh grid
	// points). Priority never affects results — only the order work
	// leaves the queue.
	Priority int
	// Run produces the job's JSON-marshalable payload.
	Run func() (any, error)
}

// Record is one line of the JSONL results stream.
type Record struct {
	Digest   string          `json:"digest"`
	Kind     string          `json:"kind"`
	Name     string          `json:"name"`
	Seed     int64           `json:"seed"`
	WallMS   float64         `json:"wall_ms"`
	Attempts int             `json:"attempts"`
	Payload  json.RawMessage `json:"payload"`
}

// Options configures a Run call or a Pool.
type Options struct {
	// Workers bounds pool size; <=0 selects GOMAXPROCS.
	Workers int
	// Retries is the number of re-attempts after a failed or panicked
	// first attempt (so Retries=1 means up to two attempts). Negative
	// disables retry.
	Retries int
	// Stream, when non-nil, receives every finished record.
	Stream *Writer
	// Progress, when non-nil, is notified as jobs finish.
	Progress *Progress
	// Observer, when non-nil, receives every finished record after it has
	// been streamed — the telemetry tap (metrics, job timelines). It is
	// called concurrently from worker goroutines and must be safe for
	// concurrent use. Results are unaffected by the observer.
	Observer func(Record)
	// Lookup, when non-nil, is consulted before executing a job: a hit
	// serves the recorded result without running (or re-streaming) it.
	// Hits are reported to Progress as cache hits, not executed jobs, so
	// a warmed cache does not poison the ETA. Typically backed by
	// LoadRecords of a previous run's results file.
	Lookup func(digest string) (Record, bool)
	// CachedJobs, when positive, tells Progress how many jobs of the
	// logical batch were already served from a cache before submission
	// (e.g. resume-skipped specs), so status lines account for them
	// without counting them in the ETA denominator.
	CachedJobs int
	// Ctx, when non-nil, cancels the run: dispatch stops, in-flight
	// jobs drain (job closures built from it stop at their next poll),
	// and Run returns an error wrapping ctx.Err(). Records streamed
	// before cancellation stay in the stream, so a rerun resumes past
	// them; every worker goroutine has exited by the time Run returns.
	Ctx context.Context
}

const defaultRetries = 1

// Run executes jobs (deduplicated by digest) on a Pool and returns the
// payloads keyed by digest. On the first job that exhausts its retries
// the pool stops dispatching, drains in-flight work, and Run returns
// that job's error; already-finished records remain in the stream, so a
// rerun resumes past them. The returned map is complete only when err
// is nil.
func Run(jobs []Job, opts Options) (map[string]json.RawMessage, error) {
	for _, j := range jobs {
		if j.Digest == "" {
			return nil, fmt.Errorf("harness: job %q has no digest", j.Name)
		}
	}
	p := newPool(opts, true)
	futs := make([]*Future, len(jobs))
	for i, j := range jobs {
		futs[i] = p.Submit(j)
	}
	p.Close()
	p.mu.Lock()
	err := p.canceled
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	out := make(map[string]json.RawMessage, len(jobs))
	for i, f := range futs {
		rec, err := f.Wait()
		if err != nil {
			return nil, err
		}
		out[jobs[i].Digest] = rec.Payload
	}
	return out, nil
}

// execute runs one job with panic isolation and retry, and marshals its
// payload into a record. A failure after the run's context was canceled
// is not retried: the job did not fail on its own merits, and a retry
// would just be canceled again.
func execute(j Job, retries int, ctx context.Context) (Record, error) {
	start := time.Now()
	var (
		payload any
		err     error
	)
	attempts := 0
	for try := 0; try <= retries; try++ {
		attempts++
		payload, err = attempt(j)
		if err == nil || (ctx != nil && ctx.Err() != nil) {
			break
		}
	}
	if err != nil {
		return Record{}, fmt.Errorf("harness: job %s failed after %d attempt(s): %w", j.Name, attempts, err)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return Record{}, fmt.Errorf("harness: job %s: marshaling payload: %w", j.Name, err)
	}
	return Record{
		Digest:   j.Digest,
		Kind:     j.Kind,
		Name:     j.Name,
		Seed:     j.Seed,
		WallMS:   float64(time.Since(start)) / float64(time.Millisecond),
		Attempts: attempts,
		Payload:  raw,
	}, nil
}

// attempt invokes the job once, converting a panic into an error so one
// bad run cannot take down the whole sweep.
func attempt(j Job) (payload any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return j.Run()
}
