package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"intellinoc/internal/core"
	"intellinoc/internal/experiments"
	"intellinoc/internal/harness"
	"intellinoc/internal/traffic"
)

// testSpec is a tiny 4x4 uniform-traffic run — a few milliseconds of
// simulation, enough to exercise the full submit/execute/stream path.
func testSpec(seed int64, packets int) experiments.RunSpec {
	return experiments.RunSpec{
		Tech: core.TechSECDED,
		Sim:  core.SimConfig{Seed: seed, Width: 4, Height: 4},
		Workload: experiments.WorkloadSpec{
			Kind: experiments.WorkloadSynthetic, Pattern: traffic.Uniform,
			InjectionRate: 0.05, PacketFlits: 4, SeedDelta: 97,
		},
		Packets: packets,
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// do drives the handler directly with a recorder — no listener, no
// ports, fully deterministic.
func do(t *testing.T, h http.Handler, method, path, client string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, rd)
	if client != "" {
		req.Header.Set("X-IntelliNoC-Client", client)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// submit posts a batch and decodes the 202 acknowledgement.
func submit(t *testing.T, h http.Handler, client string, jobs ...submitJob) submitResponse {
	t.Helper()
	rr := do(t, h, "POST", "/v1/jobs", client, submitRequest{Jobs: jobs})
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", rr.Code, rr.Body.String())
	}
	var resp submitResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// stream blocks until every entry from `from` resolves and returns the
// raw JSONL body. from < 0 means the whole stream.
func stream(t *testing.T, h http.Handler, id string, from int) string {
	t.Helper()
	path := "/v1/jobs/" + id + "/stream"
	if from >= 0 {
		path += "?from=" + strconv.Itoa(from)
	}
	rr := do(t, h, "GET", path, "", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("stream %s: status %d: %s", path, rr.Code, rr.Body.String())
	}
	return rr.Body.String()
}

// metric scrapes one value off /metrics.
func metric(t *testing.T, h http.Handler, name string) float64 {
	t.Helper()
	rr := do(t, h, "GET", "/metrics", "", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rr.Code)
	}
	for _, line := range strings.Split(rr.Body.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no %s:\n%s", name, rr.Body.String())
	return 0
}

// waitIdle waits for every reserved spec to release its quota (the
// accounting goroutine runs a hair behind stream unblocking).
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.inFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight jobs never drained: %d", s.inFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitCachesAcrossClients is the acceptance scenario: two clients
// submit the identical spec; it simulates once, the second response is
// byte-identical, and the cache-hit counter proves no re-execution.
func TestSubmitCachesAcrossClients(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store.jsonl")
	s := newTestServer(t, Config{StorePath: store, Workers: 2})
	h := s.Handler()
	spec := testSpec(1, 200)

	alice := submit(t, h, "alice", submitJob{Name: "probe", Spec: spec})
	if alice.Count != 1 || alice.Jobs[0].State != "queued" {
		t.Fatalf("first submission should queue: %+v", alice)
	}
	body1 := stream(t, h, alice.ID, -1)

	bob := submit(t, h, "bob", submitJob{Name: "probe", Spec: spec})
	if bob.Jobs[0].State != "cached" {
		t.Fatalf("second submission should hit the store: %+v", bob)
	}
	body2 := stream(t, h, bob.ID, -1)
	if body1 != body2 {
		t.Fatalf("cache replay is not byte-identical:\n%q\n%q", body1, body2)
	}
	if got := metric(t, h, "intellinocd_jobs_executed_total"); got != 1 {
		t.Fatalf("executed %v times, want exactly 1", got)
	}
	if got := metric(t, h, "intellinocd_cache_hits_total"); got != 1 {
		t.Fatalf("cache hits = %v, want 1", got)
	}
	if got := metric(t, h, "intellinocd_tenant_bob_cache_hits_total"); got != 1 {
		t.Fatalf("bob's cache hits = %v, want 1", got)
	}

	// The record is also addressable directly by digest.
	rr := do(t, h, "GET", "/v1/results/"+alice.Jobs[0].Digest, "", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("/v1/results: status %d", rr.Code)
	}
	var rec harness.Record
	if err := json.Unmarshal(rr.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Digest != alice.Jobs[0].Digest || len(rec.Payload) == 0 {
		t.Fatalf("digest lookup returned %+v", rec)
	}

	// And it is durably on disk in harness JSONL format.
	recs, skipped, err := harness.LoadRecords(store)
	if err != nil || skipped != 0 || len(recs) != 1 {
		t.Fatalf("store on disk: recs=%d skipped=%d err=%v", len(recs), skipped, err)
	}
}

// TestCoalescedDuplicatesExecuteOnce covers the in-flight dedup branch:
// the same spec twice in one batch cannot both be store hits (nothing is
// stored yet), so the second entry must coalesce onto the first's future
// and still count as a cache hit.
func TestCoalescedDuplicatesExecuteOnce(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	spec := testSpec(3, 200)

	resp := submit(t, h, "carol", submitJob{Spec: spec}, submitJob{Spec: spec})
	if resp.Jobs[0].State != "queued" || resp.Jobs[1].State != "queued" {
		t.Fatalf("states: %+v", resp.Jobs)
	}
	body := stream(t, h, resp.ID, -1)
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) != 2 || lines[0] != lines[1] {
		t.Fatalf("coalesced entries should replay the same record:\n%s", body)
	}
	if got := metric(t, h, "intellinocd_jobs_executed_total"); got != 1 {
		t.Fatalf("executed %v times, want 1", got)
	}
	if got := metric(t, h, "intellinocd_cache_hits_total"); got != 1 {
		t.Fatalf("cache hits = %v, want 1", got)
	}
}

// streamRecords parses a stream body back into records.
func streamRecords(t *testing.T, body string) []harness.Record {
	t.Helper()
	var recs []harness.Record
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		var rec harness.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("parsing stream line %q: %v", line, err)
		}
		if rec.Digest == "" {
			t.Fatalf("stream line carries no record (an error line?): %q", line)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestWorkerCountDigestIdentical runs the same batch on a 1-worker and a
// 4-worker daemon and requires digest-identical stored results — worker
// parallelism must never leak into payloads.
func TestWorkerCountDigestIdentical(t *testing.T) {
	jobs := make([]submitJob, 5)
	for i := range jobs {
		jobs[i] = submitJob{Spec: testSpec(int64(10+i), 150)}
	}
	run := func(workers int) []harness.Record {
		s := newTestServer(t, Config{Workers: workers})
		h := s.Handler()
		resp := submit(t, h, "bench", jobs...)
		return streamRecords(t, stream(t, h, resp.ID, -1))
	}
	one, many := run(1), run(4)
	if len(one) != len(jobs) || len(many) != len(jobs) {
		t.Fatalf("record counts: %d vs %d, want %d", len(one), len(many), len(jobs))
	}
	for i := range one {
		if one[i].Digest != many[i].Digest {
			t.Fatalf("entry %d digests diverge: %s vs %s", i, one[i].Digest, many[i].Digest)
		}
		if !bytes.Equal(one[i].Payload, many[i].Payload) {
			t.Fatalf("entry %d payloads diverge between 1 and 4 workers:\n%s\n%s",
				i, one[i].Payload, many[i].Payload)
		}
	}
}

// TestStoreReopenSurvivesTornTail restarts the daemon on a store whose
// tail a crash tore mid-line: the torn line is skipped, the good records
// survive, and resubmission serves everything from cache.
func TestStoreReopenSurvivesTornTail(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store.jsonl")
	jobs := []submitJob{{Spec: testSpec(20, 150)}, {Spec: testSpec(21, 150)}}

	s1 := newTestServer(t, Config{StorePath: store, Workers: 2})
	resp1 := submit(t, s1.Handler(), "dana", jobs...)
	body1 := stream(t, s1.Handler(), resp1.ID, -1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: an unterminated half-record tail.
	f, err := os.OpenFile(store, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"digest":"torn-mid-wr`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{StorePath: store, Workers: 2})
	if s2.Store().Len() != 2 || s2.Store().Skipped() != 1 {
		t.Fatalf("reopened store: len=%d skipped=%d, want 2/1", s2.Store().Len(), s2.Store().Skipped())
	}
	resp2 := submit(t, s2.Handler(), "erin", jobs...)
	for _, j := range resp2.Jobs {
		if j.State != "cached" {
			t.Fatalf("after restart everything should be cached: %+v", resp2.Jobs)
		}
	}
	if body2 := stream(t, s2.Handler(), resp2.ID, -1); body2 != body1 {
		t.Fatalf("restart replay is not byte-identical:\n%q\n%q", body1, body2)
	}
	if got := metric(t, s2.Handler(), "intellinocd_jobs_executed_total"); got != 0 {
		t.Fatalf("restarted daemon executed %v jobs, want 0", got)
	}
}

// TestRateLimitTokenBucket drives the bucket with an injected clock.
func TestRateLimitTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newTestServer(t, Config{
		Workers:  1,
		Defaults: Limits{RatePerSec: 1, Burst: 2},
		Now:      func() time.Time { return now },
	})
	h := s.Handler()
	batch := func(n int, base int64) []submitJob {
		jobs := make([]submitJob, n)
		for i := range jobs {
			jobs[i] = submitJob{Spec: testSpec(base+int64(i), 150)}
		}
		return jobs
	}

	// Burst 2: three specs at once exceed the bucket.
	rr := do(t, h, "POST", "/v1/jobs", "fast", submitRequest{Jobs: batch(3, 30)})
	if rr.Code != http.StatusTooManyRequests || rr.Header().Get("Retry-After") == "" {
		t.Fatalf("over-burst submit: status %d, Retry-After %q", rr.Code, rr.Header().Get("Retry-After"))
	}
	// Exactly the burst fits...
	first := submit(t, h, "fast", batch(2, 30)...)
	// ...and the bucket is now empty.
	if rr := do(t, h, "POST", "/v1/jobs", "fast", submitRequest{Jobs: batch(1, 40)}); rr.Code != http.StatusTooManyRequests {
		t.Fatalf("empty bucket should reject: status %d", rr.Code)
	}
	// One second refills one token.
	now = now.Add(time.Second)
	second := submit(t, h, "fast", batch(1, 40)...)

	stream(t, h, first.ID, -1)
	stream(t, h, second.ID, -1)
	if got := metric(t, h, "intellinocd_rejected_total"); got != 4 {
		t.Fatalf("rejected = %v, want 4 (3 over-burst + 1 empty-bucket)", got)
	}
	if got := metric(t, h, "intellinocd_tenant_fast_rejected_total"); got != 4 {
		t.Fatalf("tenant rejected = %v, want 4", got)
	}
}

// TestInFlightQuota verifies the quota reserves only pool work — cache
// hits ride for free — and that resolution repays it.
func TestInFlightQuota(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Defaults: Limits{MaxInFlight: 1}})
	h := s.Handler()
	a, b := testSpec(50, 150), testSpec(51, 150)

	if rr := do(t, h, "POST", "/v1/jobs", "greg", submitRequest{Jobs: []submitJob{{Spec: a}, {Spec: b}}}); rr.Code != http.StatusTooManyRequests {
		t.Fatalf("batch over quota: status %d: %s", rr.Code, rr.Body.String())
	}
	first := submit(t, h, "greg", submitJob{Spec: a})
	stream(t, h, first.ID, -1)
	waitIdle(t, s)

	// Quota released; a mixed batch fits because the cached spec holds no
	// pool capacity.
	mixed := submit(t, h, "greg", submitJob{Spec: a}, submitJob{Spec: b})
	if mixed.Jobs[0].State != "cached" || mixed.Jobs[1].State != "queued" {
		t.Fatalf("mixed batch states: %+v", mixed.Jobs)
	}
	stream(t, h, mixed.ID, -1)
}

// TestValidationRejects walks the admission checks that guard the pool
// and the cache.
func TestValidationRejects(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxPackets: 500, MaxSpecsPerRequest: 2})
	h := s.Handler()

	cases := []struct {
		name string
		spec experiments.RunSpec
		want string
	}{
		{"zero packets", func() experiments.RunSpec { sp := testSpec(1, 150); sp.Packets = 0; return sp }(), "packets"},
		{"packet budget", testSpec(1, 501), "limit 500"},
		{"mesh too big", func() experiments.RunSpec {
			sp := testSpec(1, 150)
			sp.Sim.Width = 65
			return sp
		}(), "mesh"},
		{"unknown workload", func() experiments.RunSpec {
			sp := testSpec(1, 150)
			sp.Workload.Kind = "mystery"
			return sp
		}(), "workload"},
	}
	for _, tc := range cases {
		rr := do(t, h, "POST", "/v1/jobs", "eve", submitRequest{Jobs: []submitJob{{Spec: tc.spec}}})
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), tc.want) {
			t.Fatalf("%s: status %d body %s", tc.name, rr.Code, rr.Body.String())
		}
	}

	// Batch size cap, empty batch, unknown JSON fields, malformed JSON.
	three := submitRequest{Jobs: []submitJob{{Spec: testSpec(1, 150)}, {Spec: testSpec(2, 150)}, {Spec: testSpec(3, 150)}}}
	if rr := do(t, h, "POST", "/v1/jobs", "eve", three); rr.Code != http.StatusBadRequest {
		t.Fatalf("over batch cap: status %d", rr.Code)
	}
	if rr := do(t, h, "POST", "/v1/jobs", "eve", submitRequest{}); rr.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", rr.Code)
	}
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(`{"bogus_field":1,"jobs":[]}`))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", rr.Code)
	}
	// A sim knob the simulator does not have (here sampled_windows) is
	// refused by the strict decoder rather than silently dropped, so a
	// client never gets an exact result it believes is something else.
	var withKnob map[string]any
	raw, err := json.Marshal(submitRequest{Jobs: []submitJob{{Spec: testSpec(1, 150)}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &withKnob); err != nil {
		t.Fatal(err)
	}
	sim := withKnob["jobs"].([]any)[0].(map[string]any)["spec"].(map[string]any)["sim"].(map[string]any)
	sim["sampled_windows"] = map[string]any{"detail_cycles": 1000, "skip_cycles": 1000}
	if rr := do(t, h, "POST", "/v1/jobs", "eve", withKnob); rr.Code != http.StatusBadRequest ||
		!strings.Contains(rr.Body.String(), "sampled_windows") {
		t.Fatalf("sim.sampled_windows: status %d body %s", rr.Code, rr.Body.String())
	}
	if got := metric(t, h, "intellinocd_jobs_executed_total"); got != 0 {
		t.Fatalf("rejected specs must never execute, got %v", got)
	}
}

// TestStreamResume replays suffixes by record index — the over-the-wire
// twin of harness resume.
func TestStreamResume(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	h := s.Handler()
	resp := submit(t, h, "hana",
		submitJob{Spec: testSpec(60, 150)}, submitJob{Spec: testSpec(61, 150)}, submitJob{Spec: testSpec(62, 150)})

	full := stream(t, h, resp.ID, -1)
	lines := strings.SplitAfter(full, "\n")
	if len(lines) != 4 || lines[3] != "" { // 3 records + empty tail
		t.Fatalf("full stream has %d lines:\n%s", len(lines)-1, full)
	}
	if tail := stream(t, h, resp.ID, 1); tail != lines[1]+lines[2] {
		t.Fatalf("resume from 1 diverges:\n%q\nwant\n%q", tail, lines[1]+lines[2])
	}
	if end := stream(t, h, resp.ID, 3); end != "" {
		t.Fatalf("resume at the end should be empty, got %q", end)
	}
	rr := do(t, h, "GET", "/v1/jobs/"+resp.ID+"/stream?from=4", "", nil)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range from: status %d", rr.Code)
	}
	rr = do(t, h, "GET", "/v1/jobs/nope/stream", "", nil)
	if rr.Code != http.StatusNotFound {
		t.Fatalf("unknown submission: status %d", rr.Code)
	}

	// Status reflects full resolution.
	rr = do(t, h, "GET", "/v1/jobs/"+resp.ID, "", nil)
	var status struct {
		Resolved int         `json:"resolved"`
		Jobs     []jobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.Resolved != 3 {
		t.Fatalf("status: %+v", status)
	}
}

// TestDrainStopsAdmission checks the graceful-shutdown contract: drain
// rejects new work with 503, finishes in-flight work, keeps streams
// serving, and tears everything down without leaking goroutines.
func TestDrainStopsAdmission(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	resp := submit(t, h, "ivan", submitJob{Spec: testSpec(70, 150)})
	s.BeginDrain()
	if rr := do(t, h, "POST", "/v1/jobs", "ivan", submitRequest{Jobs: []submitJob{{Spec: testSpec(71, 150)}}}); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining daemon accepted work: status %d", rr.Code)
	}
	if rr := do(t, h, "GET", "/healthz", "", nil); !strings.Contains(rr.Body.String(), "draining") {
		t.Fatalf("healthz should report draining: %s", rr.Body.String())
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The accepted job finished during drain and its stream still serves.
	if recs := streamRecords(t, stream(t, h, resp.ID, -1)); len(recs) != 1 {
		t.Fatalf("drained stream: %+v", recs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Workers, the context watcher, and accounting goroutines must all be
	// gone — the daemon equivalent of the telemetry tap's old leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDrainDeadlineCancelsInFlight forces the drain timeout: a long run
// must be canceled through the pool context and surface as a stream
// error line rather than hanging shutdown forever.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Retries: -1, MaxPackets: 5_000_000})
	h := s.Handler()
	long := testSpec(80, 2_000_000) // minutes of simulation if left alone

	resp := submit(t, h, "kate", submitJob{Name: "long", Spec: long})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain past its deadline should report the cancellation")
	}
	body := stream(t, h, resp.ID, -1)
	var line streamLine
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &line); err != nil {
		t.Fatalf("parsing %q: %v", body, err)
	}
	if line.Error == "" || !strings.Contains(line.Error, "cancel") {
		t.Fatalf("canceled job should stream an error line, got %q", body)
	}
	if got := metric(t, h, "intellinocd_jobs_failed_total"); got != 1 {
		t.Fatalf("failed = %v, want 1", got)
	}
}

// TestPolicyZooSurvivesRestart is the daemon half of the zoo acceptance
// criterion: after a restart with an empty result store but the same
// policy zoo, re-running an RL job skips pre-training (exact digest hit)
// and the result is byte-identical to the cold-trained pass. It also
// pins the admission rule that non-reproducible warm starts never reach
// the pool.
func TestPolicyZooSurvivesRestart(t *testing.T) {
	zoo := t.TempDir()
	pol := experiments.PolicySpec{
		Sim:    core.SimConfig{Seed: 7, Width: 4, Height: 4},
		Epochs: 1, PacketsPerEpoch: 200,
		Tech: core.TechIntelliNoCBuf.String(),
	}
	spec := testSpec(7, 200)
	spec.Tech = core.TechIntelliNoCBuf
	spec.Policy = &pol

	run := func() harness.Record {
		s := newTestServer(t, Config{Workers: 1, PolicyZoo: zoo})
		h := s.Handler()
		resp := submit(t, h, "zoe", submitJob{Spec: spec})
		recs := streamRecords(t, stream(t, h, resp.ID, -1))
		if len(recs) != 1 {
			t.Fatalf("got %d records, want 1", len(recs))
		}
		waitIdle(t, s)
		if hits, stores := metric(t, h, "intellinocd_policy_zoo_hits"), metric(t, h, "intellinocd_policy_zoo_stores"); hits+stores != 1 {
			t.Fatalf("zoo gauges hits=%v stores=%v, want exactly one of them 1", hits, stores)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return recs[0]
	}

	cold := run()   // trains, persists to the zoo
	reused := run() // fresh daemon, fresh store: pre-training served from the zoo
	if cold.Digest != reused.Digest || !bytes.Equal(cold.Payload, reused.Payload) {
		t.Fatalf("zoo-loaded policy run diverges from cold-trained:\n%s\nvs\n%s", cold.Payload, reused.Payload)
	}

	// Warm-started training is zoo-state-dependent; the daemon must
	// reject it before the digest store can be poisoned.
	s := newTestServer(t, Config{Workers: 1, PolicyZoo: zoo})
	warm := spec
	wpol := pol
	wpol.WarmStart = experiments.WarmStartNearest
	warm.Policy = &wpol
	rr := do(t, s.Handler(), "POST", "/v1/jobs", "zoe", submitRequest{Jobs: []submitJob{{Spec: warm}}})
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "warm") {
		t.Fatalf("warm-start submit: status %d body %s", rr.Code, rr.Body.String())
	}
}
