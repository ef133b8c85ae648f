package service

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"intellinoc/internal/telemetry"
)

// Limits is one client's admission policy. The zero value means
// "unlimited, priority 0" — the daemon's defaults apply per field.
type Limits struct {
	// Priority orders this client's jobs in the pool's dispatch queue
	// (higher first; see harness.Job.Priority). A request may lower its
	// own effective priority but never exceed the configured one.
	Priority int `json:"priority"`
	// RatePerSec refills the client's token bucket (one token per
	// submitted spec); <= 0 disables rate limiting.
	RatePerSec float64 `json:"rate_per_sec"`
	// Burst caps the bucket; <= 0 selects max(RatePerSec, 1).
	Burst float64 `json:"burst"`
	// MaxInFlight bounds the client's queued+running specs (cache hits
	// excluded — they hold no pool capacity); <= 0 disables the quota.
	MaxInFlight int `json:"max_in_flight"`
}

// admissionError is a rejection with its HTTP status.
type admissionError struct {
	status int
	msg    string
}

func (e *admissionError) Error() string { return e.msg }

// tenant tracks one client's live admission state: a token bucket over
// the configured rate, an in-flight quota, and per-tenant counters on
// the daemon's registry.
type tenant struct {
	name   string
	limits Limits

	mu       sync.Mutex
	tokens   float64
	last     time.Time
	inFlight int

	submitted *telemetry.Counter
	executed  *telemetry.Counter
	cacheHits *telemetry.Counter
	rejected  *telemetry.Counter
}

func newTenant(name string, limits Limits, now time.Time, reg *telemetry.Registry) *tenant {
	if limits.Burst <= 0 {
		limits.Burst = limits.RatePerSec
		if limits.Burst < 1 {
			limits.Burst = 1
		}
	}
	m := metricTenant(name)
	return &tenant{
		name:   name,
		limits: limits,
		tokens: limits.Burst,
		last:   now,
		submitted: reg.Counter("intellinocd_tenant_"+m+"_submitted_total",
			fmt.Sprintf("Specs submitted by client %q.", name)),
		executed: reg.Counter("intellinocd_tenant_"+m+"_executed_total",
			fmt.Sprintf("Specs that cost client %q a simulation.", name)),
		cacheHits: reg.Counter("intellinocd_tenant_"+m+"_cache_hits_total",
			fmt.Sprintf("Specs served to client %q from the digest store or in-flight dedup.", name)),
		rejected: reg.Counter("intellinocd_tenant_"+m+"_rejected_total",
			fmt.Sprintf("Specs rejected for client %q by quota or rate limit.", name)),
	}
}

// admit charges the token bucket for all `specs` submitted specs and
// reserves in-flight quota for the `reserve` of them that will actually
// occupy the pool (cache hits are free). It either accepts everything or
// rejects the whole submission — partial admission would tear batches
// apart.
func (t *tenant) admit(specs, reserve int, now time.Time) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if q := t.limits.MaxInFlight; q > 0 && t.inFlight+reserve > q {
		t.rejected.Add(uint64(specs))
		return &admissionError{http.StatusTooManyRequests,
			fmt.Sprintf("client %q over quota: %d in flight + %d requested > %d allowed", t.name, t.inFlight, reserve, q)}
	}
	if rate := t.limits.RatePerSec; rate > 0 {
		dt := now.Sub(t.last).Seconds()
		if dt > 0 {
			t.tokens += dt * rate
			if t.tokens > t.limits.Burst {
				t.tokens = t.limits.Burst
			}
			t.last = now
		}
		if float64(specs) > t.tokens {
			t.rejected.Add(uint64(specs))
			return &admissionError{http.StatusTooManyRequests,
				fmt.Sprintf("client %q rate-limited: %d spec(s) requested, %.1f token(s) available (%.3g/s)", t.name, specs, t.tokens, rate)}
		}
		t.tokens -= float64(specs)
	}
	t.inFlight += reserve
	return nil
}

// release returns quota as reserved specs resolve.
func (t *tenant) release(n int) {
	t.mu.Lock()
	t.inFlight -= n
	t.mu.Unlock()
}

// metricTenant folds a client name into a Prometheus identifier
// fragment, injectively: letters and digits pass through and every other
// byte, '_' included, becomes '_' plus two lowercase hex digits. So
// "ci-a", "ci_a" and "ci.a" get distinct counters, while plain names
// like "bob" keep their readable metric names.
func metricTenant(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			out = append(out, c)
		} else {
			out = fmt.Appendf(out, "_%02x", c)
		}
	}
	return string(out)
}
