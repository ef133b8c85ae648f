// Package service is the simulation-as-a-service layer under
// cmd/intellinocd: an HTTP/JSON daemon that accepts RunSpec-shaped job
// submissions, schedules them on a harness.Pool with per-client
// priorities, quotas and token-bucket rate limits, streams results back
// as JSONL over chunked HTTP (resumable by record index), and serves
// repeated identical specs from a content-digest result store instead of
// re-simulating. The harness's digest dedup becomes a global memoization
// layer: any number of clients submitting the same spec cost one
// simulation, ever, per store.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"intellinoc/internal/core"
	"intellinoc/internal/experiments"
	"intellinoc/internal/harness"
	"intellinoc/internal/telemetry"
)

// Config assembles a daemon.
type Config struct {
	// StorePath is the JSONL digest store ("" = memory-only).
	StorePath string
	// PolicyZoo is the on-disk policy zoo directory ("" = in-memory
	// policies only). With a zoo, pre-trained Q-tables persist across
	// daemon restarts: a job whose policy spec digest is already in the
	// zoo skips pre-training entirely, and the loaded policy deploys
	// through the same clone path as a cold-trained one, so results are
	// bit-identical either way.
	PolicyZoo string
	// Workers bounds the simulation pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Retries is passed to the harness pool (0 selects its default).
	Retries int
	// Shards is applied to every accepted spec's SimConfig.Shards — a
	// digest-neutral execution knob, so it never splits the cache.
	Shards int
	// Defaults applies to clients without an entry in Tenants.
	Defaults Limits
	// Tenants overrides Limits per client name (the X-IntelliNoC-Client
	// header).
	Tenants map[string]Limits
	// MaxSpecsPerRequest bounds one submission (default 256).
	MaxSpecsPerRequest int
	// MaxPackets bounds a single spec's packet budget (default 1e6).
	MaxPackets int
	// MaxMeshDim bounds Sim.Width/Height (default 64).
	MaxMeshDim int
	// Registry receives the daemon's metrics; nil creates a fresh one.
	Registry *telemetry.Registry
	// Now injects a clock for tests; nil selects time.Now.
	Now func() time.Time
}

// Server is a running daemon core (everything but the TCP listener —
// cmd/intellinocd and httptest both mount Handler()).
type Server struct {
	cfg      Config
	reg      *telemetry.Registry
	now      func() time.Time
	store    *Store
	pool     *harness.Pool
	policies *experiments.PolicyStore
	mux      *http.ServeMux
	ctx      context.Context
	cancel   context.CancelFunc

	wg sync.WaitGroup // submission accounting goroutines

	mu       sync.Mutex
	draining bool
	closed   bool
	tenants  map[string]*tenant
	seen     map[string]*harness.Future // digest -> pool future (in-flight dedup across submissions)
	subs     map[string]*submission
	subSeq   int64

	inFlight atomic.Int64

	mSubmissions *telemetry.Counter
	mSpecs       *telemetry.Counter
	mExecuted    *telemetry.Counter
	mCacheHits   *telemetry.Counter
	mFailed      *telemetry.Counter
	mRejected    *telemetry.Counter
	mStored      *telemetry.Gauge
	mInFlight    *telemetry.Gauge
	mWallMS      *telemetry.Histogram
	mZooHits     *telemetry.Gauge
	mZooStores   *telemetry.Gauge
}

// submission is one accepted batch: ordered entries, streamed by index.
type submission struct {
	id     string
	client string
	ten    *tenant
	// entries resolve in order; each is closed-over by exactly one
	// accounting pass, so streams at any index never double-count.
	entries []*entry
}

// entry is one spec of a submission.
type entry struct {
	name   string
	digest string
	fut    *harness.Future // nil when resolved synchronously from the store
	// coalesced marks an in-flight dedup: the future belongs to an
	// earlier submission, so resolution counts as a cache hit even
	// though fut.Cached() is false for the original submitter.
	coalesced bool

	// Set by the accounting goroutine before done closes.
	rec    harness.Record
	cached bool
	err    error
	done   chan struct{}
}

// New opens the store, starts the pool, and mounts the API.
func New(cfg Config) (*Server, error) {
	if cfg.MaxSpecsPerRequest <= 0 {
		cfg.MaxSpecsPerRequest = 256
	}
	if cfg.MaxPackets <= 0 {
		cfg.MaxPackets = 1_000_000
	}
	if cfg.MaxMeshDim <= 0 {
		cfg.MaxMeshDim = 64
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	store, err := OpenStore(cfg.StorePath)
	if err != nil {
		return nil, fmt.Errorf("service: opening result store: %w", err)
	}
	policies := experiments.NewPolicyStore()
	if cfg.PolicyZoo != "" {
		zoo, err := core.NewPolicyStore(cfg.PolicyZoo)
		if err != nil {
			_ = store.Close()
			return nil, fmt.Errorf("service: opening policy zoo: %w", err)
		}
		policies = experiments.NewZooPolicyStore(zoo)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		now:      now,
		store:    store,
		policies: policies,
		ctx:      ctx,
		cancel:   cancel,
		tenants:  make(map[string]*tenant),
		seen:     make(map[string]*harness.Future),
		subs:     make(map[string]*submission),

		mSubmissions: reg.Counter("intellinocd_submissions_total", "Accepted job submissions (batches)."),
		mSpecs:       reg.Counter("intellinocd_specs_total", "Specs accepted across all submissions."),
		mExecuted:    reg.Counter("intellinocd_jobs_executed_total", "Simulations actually executed by the pool (cache hits excluded)."),
		mCacheHits:   reg.Counter("intellinocd_cache_hits_total", "Specs served from the digest store or in-flight dedup instead of re-simulating."),
		mFailed:      reg.Counter("intellinocd_jobs_failed_total", "Specs whose execution failed."),
		mRejected:    reg.Counter("intellinocd_rejected_total", "Specs rejected by validation, quota, or rate limit."),
		mStored:      reg.Gauge("intellinocd_store_records", "Records in the digest result store."),
		mInFlight:    reg.Gauge("intellinocd_inflight_jobs", "Specs queued or executing right now."),
		mWallMS: reg.Histogram("intellinocd_job_wall_ms", "Per-executed-job wall time in milliseconds.",
			[]float64{10, 100, 500, 1000, 5000, 15000, 60000, 300000}),
		mZooHits:   reg.Gauge("intellinocd_policy_zoo_hits", "Pre-training passes served from the policy zoo by exact spec digest."),
		mZooStores: reg.Gauge("intellinocd_policy_zoo_stores", "Freshly-trained policies persisted to the policy zoo."),
	}
	s.mStored.Set(float64(store.Len()))
	s.pool = harness.NewPool(harness.Options{
		Workers: cfg.Workers,
		Retries: cfg.Retries,
		Stream:  store.Writer(),
		Lookup:  store.Get,
		// The observer runs once per actually-executed record, after it
		// is on disk — the moment it becomes servable from memory.
		Observer: func(rec harness.Record) {
			store.add(rec)
			s.mExecuted.Inc()
			s.mWallMS.Observe(rec.WallMS)
			s.mStored.Set(float64(store.Len()))
			// Any pre-training this record triggered has finished by now.
			zs := s.policies.Stats()
			s.mZooHits.Set(float64(zs.Hits))
			s.mZooStores.Set(float64(zs.Stores))
		},
		Ctx: ctx,
	})
	reg.PublishExpvar("intellinocd")

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/results/{digest}", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	ops := telemetry.OpsHandler(reg)
	mux.Handle("/metrics", ops)
	mux.Handle("/debug/", ops)
	s.mux = mux
	return s, nil
}

// Handler is the daemon's full HTTP surface (API + ops).
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the digest store (tests and tooling).
func (s *Server) Store() *Store { return s.store }

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	// Priority, when set, lowers the effective priority below the
	// client's configured one (a client can sequence its own batches but
	// never jump another tenant's line).
	Priority *int        `json:"priority,omitempty"`
	Jobs     []submitJob `json:"jobs"`
}

type submitJob struct {
	Name string              `json:"name,omitempty"`
	Spec experiments.RunSpec `json:"spec"`
}

// submitResponse acknowledges an accepted submission.
type submitResponse struct {
	ID     string      `json:"id"`
	Client string      `json:"client"`
	Count  int         `json:"count"`
	Stream string      `json:"stream"`
	Jobs   []jobStatus `json:"jobs"`
}

type jobStatus struct {
	Index  int    `json:"index"`
	Name   string `json:"name"`
	Digest string `json:"digest"`
	State  string `json:"state"`
}

// client resolves the submitting tenant from the request.
func (s *Server) client(r *http.Request) string {
	if c := r.Header.Get("X-IntelliNoC-Client"); c != "" {
		return c
	}
	return "anonymous"
}

// tenantFor returns (creating on first use) the tenant record.
func (s *Server) tenantFor(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[name]
	if t == nil {
		limits, ok := s.cfg.Tenants[name]
		if !ok {
			limits = s.cfg.Defaults
		}
		t = newTenant(name, limits, s.now(), s.reg)
		s.tenants[name] = t
	}
	return t
}

// validateSpec rejects hostile or cache-poisoning specs before they
// reach the pool.
func (s *Server) validateSpec(spec experiments.RunSpec) error {
	if spec.Packets <= 0 {
		return fmt.Errorf("packets must be positive")
	}
	if spec.Packets > s.cfg.MaxPackets {
		return fmt.Errorf("packets %d exceeds the per-spec limit %d", spec.Packets, s.cfg.MaxPackets)
	}
	if spec.Sim.Width < 0 || spec.Sim.Height < 0 ||
		spec.Sim.Width > s.cfg.MaxMeshDim || spec.Sim.Height > s.cfg.MaxMeshDim {
		return fmt.Errorf("mesh %dx%d outside [0, %d]", spec.Sim.Width, spec.Sim.Height, s.cfg.MaxMeshDim)
	}
	if spec.Sim.MaxCycles < 0 {
		return fmt.Errorf("max_cycles must be non-negative")
	}
	switch spec.Workload.Kind {
	case experiments.WorkloadParsec, experiments.WorkloadSynthetic:
	default:
		return fmt.Errorf("unknown workload kind %q", spec.Workload.Kind)
	}
	if p := spec.Policy; p != nil {
		if p.WarmStart != "" {
			// Warm-started tables depend on whatever the zoo holds at
			// training time, so the result is not a pure function of the
			// spec; caching it under a content digest would poison every
			// future exact lookup.
			return fmt.Errorf("warm-started pre-training is not allowed in the service (results depend on zoo contents; unset policy.warm_start)")
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("policy: %v", err)
		}
		if p.Epochs < 0 || p.Epochs > 1000 || p.PacketsPerEpoch < 0 || p.PacketsPerEpoch > s.cfg.MaxPackets {
			return fmt.Errorf("policy pre-training budget out of range")
		}
	}
	return nil
}

// handleSubmit accepts a batch of RunSpecs: validate, admit against the
// tenant's quota and rate limit, serve store hits instantly, coalesce
// in-flight duplicates, and queue the rest on the pool at the tenant's
// priority.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	client := s.client(r)
	ten := s.tenantFor(client)

	var req submitRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding submission: %v", err))
		return
	}
	if len(req.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, "submission has no jobs")
		return
	}
	if len(req.Jobs) > s.cfg.MaxSpecsPerRequest {
		s.mRejected.Add(uint64(len(req.Jobs)))
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("%d jobs exceeds the per-request limit %d", len(req.Jobs), s.cfg.MaxSpecsPerRequest))
		return
	}
	for i := range req.Jobs {
		// Shards is an execution knob, digest-neutral by construction:
		// normalizing it here cannot split the cache.
		req.Jobs[i].Spec.Sim.Shards = s.cfg.Shards
		if err := s.validateSpec(req.Jobs[i].Spec); err != nil {
			s.mRejected.Inc()
			httpError(w, http.StatusBadRequest, fmt.Sprintf("job %d: %v", i, err))
			return
		}
	}

	priority := ten.limits.Priority
	if req.Priority != nil && *req.Priority < priority {
		priority = *req.Priority
	}

	// Resolve digests and partition into store hits vs pool work, then
	// admit: rate tokens for every spec, quota only for the ones that
	// will hold pool capacity.
	type prepared struct {
		name   string
		digest string
		hit    bool
		rec    harness.Record
	}
	preps := make([]prepared, len(req.Jobs))
	reserve := 0
	for i, j := range req.Jobs {
		d := j.Spec.Digest()
		name := j.Name
		if name == "" {
			name = client + "/" + d[:8]
		}
		rec, hit := s.store.Get(d)
		preps[i] = prepared{name: name, digest: d, hit: hit, rec: rec}
		if !hit {
			reserve++
		}
	}

	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "draining: not accepting new submissions")
		return
	}
	s.mu.Unlock()
	if err := ten.admit(len(req.Jobs), reserve, s.now()); err != nil {
		s.mRejected.Add(uint64(len(req.Jobs)))
		ae := err.(*admissionError)
		w.Header().Set("Retry-After", "1")
		httpError(w, ae.status, ae.msg)
		return
	}

	// Build entries. Everything below must succeed — quota is already
	// charged and is repaid by the accounting goroutine.
	sub := &submission{client: client, ten: ten}
	statuses := make([]jobStatus, len(req.Jobs))
	for i, p := range preps {
		e := &entry{name: p.name, digest: p.digest, done: make(chan struct{})}
		state := "queued"
		if p.hit {
			e.rec, e.cached = p.rec, true
			close(e.done)
			state = "cached"
			ten.cacheHits.Inc()
			s.mCacheHits.Inc()
		} else {
			spec := req.Jobs[i].Spec
			job := harness.Job{
				Digest:   p.digest,
				Kind:     "run",
				Name:     p.name,
				Seed:     spec.Sim.Seed,
				Priority: priority,
				Run: func() (any, error) {
					return spec.ExecuteContext(s.ctx, s.policies)
				},
			}
			s.mu.Lock()
			fut, dup := s.seen[p.digest]
			if !dup {
				fut = s.pool.Submit(job)
				s.seen[p.digest] = fut
			}
			s.mu.Unlock()
			e.fut, e.coalesced = fut, dup
			s.inFlight.Add(1)
			s.mInFlight.Set(float64(s.inFlight.Load()))
		}
		ten.submitted.Inc()
		sub.entries = append(sub.entries, e)
		statuses[i] = jobStatus{Index: i, Name: p.name, Digest: p.digest, State: state}
	}

	s.mu.Lock()
	s.subSeq++
	sub.id = fmt.Sprintf("sub-%06d", s.subSeq)
	s.subs[sub.id] = sub
	s.mu.Unlock()

	s.mSubmissions.Inc()
	s.mSpecs.Add(uint64(len(req.Jobs)))

	// One accounting goroutine per submission: resolve entries in order,
	// repay quota, and settle the cache-hit/executed/failed counters.
	s.wg.Add(1)
	go s.account(sub)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(submitResponse{
		ID:     sub.id,
		Client: client,
		Count:  len(sub.entries),
		Stream: "/v1/jobs/" + sub.id + "/stream",
		Jobs:   statuses,
	})
}

// account resolves a submission's entries in order. It is the single
// writer of each entry's rec/cached/err fields; done closing publishes
// them to any number of stream readers.
func (s *Server) account(sub *submission) {
	defer s.wg.Done()
	for _, e := range sub.entries {
		if e.fut == nil {
			continue // store hit, resolved at submit
		}
		rec, err := e.fut.Wait()
		e.rec, e.err = rec, err
		e.cached = err == nil && (e.coalesced || e.fut.Cached())
		close(e.done)
		sub.ten.release(1)
		s.inFlight.Add(-1)
		s.mInFlight.Set(float64(s.inFlight.Load()))
		switch {
		case err != nil:
			s.mFailed.Inc()
		case e.cached:
			sub.ten.cacheHits.Inc()
			s.mCacheHits.Inc()
		default:
			sub.ten.executed.Inc()
		}
	}
}

// submission looks a batch up by id.
func (s *Server) submission(id string) *submission {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.subs[id]
}

// handleStatus reports per-entry state without blocking.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sub := s.submission(r.PathValue("id"))
	if sub == nil {
		httpError(w, http.StatusNotFound, "no such submission")
		return
	}
	statuses := make([]jobStatus, len(sub.entries))
	entryState := func(e *entry) string {
		select {
		case <-e.done:
			switch {
			case e.err != nil:
				return "failed"
			case e.cached:
				return "cached"
			default:
				return "done"
			}
		default:
			return "pending"
		}
	}
	done := 0
	for i, e := range sub.entries {
		st := entryState(e)
		if st != "pending" {
			done++
		}
		statuses[i] = jobStatus{Index: i, Name: e.name, Digest: e.digest, State: st}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(map[string]any{
		"id": sub.id, "client": sub.client,
		"count": len(sub.entries), "resolved": done,
		"jobs": statuses,
	})
}

// streamLine is one line of a result stream: either a full harness
// record or a terminal error for that index.
type streamLine struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	Error string `json:"error"`
}

// handleStream replays a submission's records as JSONL over chunked
// HTTP, blocking on unresolved entries, flushing per line. ?from=N skips
// the first N records, so a disconnected client resumes by sending the
// count it already holds — the same contract as harness resume, over the
// wire.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sub := s.submission(r.PathValue("id"))
	if sub == nil {
		httpError(w, http.StatusNotFound, "no such submission")
		return
	}
	from := 0
	if f := r.URL.Query().Get("from"); f != "" {
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 || n > len(sub.entries) {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("from must be in [0, %d]", len(sub.entries)))
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	for i := from; i < len(sub.entries); i++ {
		e := sub.entries[i]
		select {
		case <-e.done:
		case <-r.Context().Done():
			return // client went away; it can resume with ?from=i
		}
		var line []byte
		if e.err != nil {
			line, _ = json.Marshal(streamLine{Index: i, Name: e.name, Error: e.err.Error()})
		} else {
			// Replay the record exactly as stored: a cache hit is
			// byte-identical to the response the original submitter got.
			var err error
			line, err = json.Marshal(e.rec)
			if err != nil {
				line, _ = json.Marshal(streamLine{Index: i, Name: e.name, Error: err.Error()})
			}
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleResult serves one stored record by digest.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.store.Get(r.PathValue("digest"))
	if !ok {
		httpError(w, http.StatusNotFound, "no stored result for digest")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(rec)
}

// handleHealth reports liveness and drain state.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":         status,
		"stored_records": s.store.Len(),
		"inflight_jobs":  s.inFlight.Load(),
		"policy_zoo":     s.policies.Stats(),
	})
}

// BeginDrain stops admission: new submissions get 503 while in-flight
// work keeps running and streams keep flushing.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Drain gracefully winds the daemon down: admission stops, then queued
// and in-flight jobs run to completion; if ctx expires first, the pool
// context is canceled so in-flight simulations stop at their next poll
// and queued jobs fail fast (their records are simply absent — a
// resubmission after restart resumes from the store). Always waits for
// every accounting goroutine before returning.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel()
		<-done
	}
	s.pool.Close()
	return err
}

// Close force-stops everything Drain left (idempotent): cancels the pool
// context, drains, and closes the store so the JSONL tail is flushed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	s.pool.Close()
	return s.store.Close()
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
