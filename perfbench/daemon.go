package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"intellinoc/internal/experiments"
	"intellinoc/internal/harness"
	"intellinoc/internal/noc"
	"intellinoc/internal/service"
)

// daemonSpecs returns the daemon's unique specs: the quick suite's (whose
// payloads the golden digests pin) plus extra copies of seeded-chosen
// static-design specs at seeds of their own, so the set passes 100 specs
// and changes with the seed.
func daemonSpecs(base []experiments.LabeledSpec, seed int64, extra int) []experiments.LabeledSpec {
	specs := append([]experiments.LabeledSpec(nil), base...)
	var static []experiments.LabeledSpec
	for _, ls := range base {
		if ls.Spec.Policy == nil && !ls.Spec.UseAblation && !ls.Spec.Tech.RLControlled() {
			static = append(static, ls)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < extra && len(static) > 0; i++ {
		ls := static[rng.Intn(len(static))]
		ls.Spec.Sim.Seed = 1_000_000 + seed*64 + int64(i)
		ls.Name = fmt.Sprintf("%s/seed%d", ls.Name, ls.Spec.Sim.Seed)
		specs = append(specs, ls)
	}
	return specs
}

// daemonJob is one submission: a spec, and whether it is the spec's
// first submission (which simulates) or its second (which replays).
type daemonJob struct {
	spec  int
	first bool
}

// daemonOrder submits every spec twice, in a seeded order.
func daemonOrder(specs int, seed int64) []daemonJob {
	idx := make([]int, 0, 2*specs)
	for i := 0; i < specs; i++ {
		idx = append(idx, i, i)
	}
	rng := rand.New(rand.NewSource(seed + 7))
	rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	seen := make([]bool, specs)
	jobs := make([]daemonJob, len(idx))
	for k, i := range idx {
		jobs[k] = daemonJob{spec: i, first: !seen[i]}
		seen[i] = true
	}
	return jobs
}

// dispatcher hands the two clients their next job. A spec's second
// submission waits until its first has finished, so it is always served
// from the store rather than coalesced with the running first one.
type dispatcher struct {
	mu        sync.Mutex
	cond      *sync.Cond
	queue     []daemonJob
	firstDone map[int]bool
}

func newDispatcher(jobs []daemonJob) *dispatcher {
	d := &dispatcher{queue: append([]daemonJob(nil), jobs...), firstDone: map[int]bool{}}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// next returns the earliest job that may start, waiting while only
// second submissions of running specs remain.
func (d *dispatcher) next() (daemonJob, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.queue) > 0 {
		for i, j := range d.queue {
			if j.first || d.firstDone[j.spec] {
				d.queue = append(d.queue[:i], d.queue[i+1:]...)
				return j, true
			}
		}
		d.cond.Wait()
	}
	return daemonJob{}, false
}

func (d *dispatcher) finish(j daemonJob) {
	d.mu.Lock()
	if j.first {
		d.firstDone[j.spec] = true
	}
	d.mu.Unlock()
	d.cond.Broadcast()
}

// daemon is an in-process service.Server behind a loopback listener.
type daemon struct {
	srv   *service.Server
	http  *httptest.Server
	dir   string
	store string
}

func startDaemon(scratch string) (*daemon, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "daemon-")
	if err != nil {
		return nil, err
	}
	store := filepath.Join(dir, "store.jsonl")
	srv, err := service.New(service.Config{
		StorePath: store,
		Workers:   2,
		// No rate limit and no in-flight quota: admission must never
		// refuse a job of the benchmark.
		Defaults: service.Limits{},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &daemon{srv: srv, http: httptest.NewServer(srv.Handler()), dir: dir, store: store}, nil
}

// close stops the listener and the server, and returns the store's size
// in MiB.
func (d *daemon) close() (storeMiB float64, err error) {
	d.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = d.srv.Drain(ctx)
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	if fi, serr := os.Stat(d.store); serr == nil {
		storeMiB = float64(fi.Size()) / (1 << 20)
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return storeMiB, err
}

// jobOutcome is what a client saw of one submission.
type jobOutcome struct {
	state   string // "queued" (simulates) or "cached" (replays)
	submit  time.Duration
	latency time.Duration // submit to the last stream line
	rec     harness.Record
}

// client is one closed-loop client on its own connection.
type client struct {
	name string
	base string
	http *http.Client
}

func newClient(name, base string) *client {
	return &client{name: name, base: base, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

// do submits one spec and reads its stream to the end.
func (c *client) do(ctx context.Context, ls experiments.LabeledSpec) (jobOutcome, error) {
	var out jobOutcome
	body, err := json.Marshal(map[string]any{"jobs": []any{map[string]any{"name": ls.Name, "spec": ls.Spec}}})
	if err != nil {
		return out, err
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("X-IntelliNoC-Client", c.name)
	resp, err := c.http.Do(req)
	if err != nil {
		return out, err
	}
	msg, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return out, fmt.Errorf("refused with %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var ack struct {
		Stream string `json:"stream"`
		Jobs   []struct {
			State string `json:"state"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(msg, &ack); err != nil || len(ack.Jobs) != 1 {
		return out, fmt.Errorf("bad acknowledgement %q: %v", msg, err)
	}
	out.submit = time.Since(start)
	out.state = ack.Jobs[0].State

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+ack.Stream, nil)
	if err != nil {
		return out, err
	}
	resp, err = c.http.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	var last []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	out.latency = time.Since(start)
	if len(last) == 0 {
		return out, errors.New("stream ended without a record")
	}
	var line struct {
		harness.Record
		Error string `json:"error"`
	}
	if err := json.Unmarshal(last, &line); err != nil {
		return out, fmt.Errorf("bad stream line: %v", err)
	}
	if line.Error != "" {
		return out, fmt.Errorf("job failed: %s", line.Error)
	}
	out.rec = line.Record
	return out, nil
}

// daemonPass is one pass over the submission order against a fresh
// daemon.
type daemonPass struct {
	wall     time.Duration
	cpu      time.Duration // process CPU time while the clients ran
	storeMiB float64
	outcomes []jobOutcome
	jobs     []daemonJob
	errs     []error
}

func runDaemonPass(ctx context.Context, scratch string, specs []experiments.LabeledSpec, order []daemonJob) daemonPass {
	var p daemonPass
	d, err := startDaemon(scratch)
	if err != nil {
		p.errs = append(p.errs, fmt.Errorf("starting daemon: %w", err))
		return p
	}
	disp := newDispatcher(order)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start, cpu := time.Now(), cpuTime()
	for _, name := range []string{"bench-a", "bench-b"} {
		c := newClient(name, d.http.URL)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.http.CloseIdleConnections()
			for {
				j, ok := disp.next()
				if !ok {
					return
				}
				out, err := c.do(ctx, specs[j.spec])
				disp.finish(j)
				mu.Lock()
				if err != nil {
					p.errs = append(p.errs, fmt.Errorf("%s: %w", specs[j.spec].Name, err))
				} else {
					p.outcomes = append(p.outcomes, out)
					p.jobs = append(p.jobs, j)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu
	p.storeMiB, err = d.close()
	if err != nil {
		p.errs = append(p.errs, fmt.Errorf("stopping daemon: %w", err))
	}
	return p
}

func runDaemon(ctx context.Context, rc runConfig) *report {
	rep := newReport()
	golden, err := loadGolden(rc.root)
	if err != nil {
		rep.attempted++
		rep.fail("golden digests: %v", err)
		return rep
	}
	suite, err := experiments.NewSuite(quickSuiteOptions(rc.tiny))
	if err != nil {
		rep.attempted++
		rep.fail("NewSuite: %v", err)
		return rep
	}
	base, extra := quickSpecs(suite), 12
	if rc.tiny {
		base, extra = base[:3], 1
	}
	specs := daemonSpecs(base, rc.seed, extra)
	order := daemonOrder(len(specs), rc.seed)
	scratch := filepath.Join(rc.root, ".bench_build", "tmp")

	// As timeSetup, but each daemon is stopped, untimed, before the next.
	var setups []float64
	for i := 0; i < 201; i++ {
		runtime.GC()
		cpu := cpuTime()
		d, err := startDaemon(scratch)
		if err == nil {
			setups = append(setups, (cpuTime() - cpu).Seconds())
			_, err = d.close()
		}
		if err != nil {
			rep.attempted++
			rep.fail("daemon start: %v", err)
			return rep
		}
	}

	agree := agreement{}
	perPass := passMetrics{}
	var hit, submit, overhead, storeMiB, runMS, util, packets, flitsPerCycle []float64
	var hits, served int
	deadline := time.Now().Add(rc.budget)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		p := runDaemonPass(ctx, scratch, specs, order)
		rep.attempted += len(order)
		for _, err := range p.errs {
			rep.fail("pass %d: %v", pass, err)
		}
		if len(p.errs) > 0 {
			return rep
		}
		rates := newJobRates()
		var miss []float64
		var run, latency, pk, fl, cy float64
		for k, out := range p.outcomes {
			j := p.jobs[k]
			ls := specs[j.spec]
			rec := out.rec
			hash := harness.PayloadHash(rec)
			wantState := "cached"
			if j.first {
				wantState = "queued"
			}
			switch g, inGolden := golden[rec.Digest]; {
			case rec.Digest != ls.Spec.Digest():
				rep.fail("%s: streamed digest %s, submitted %s", ls.Name, rec.Digest, ls.Spec.Digest())
				continue
			case inGolden && hash != g:
				rep.fail("%s: payload hash %s, golden %s", ls.Name, hash, g)
				continue
			case !agree.check(rec.Digest, hash):
				rep.fail("%s: payload hash %s differs from an earlier submission's %s", ls.Name, hash, agree[rec.Digest])
				continue
			case out.state != wantState:
				rep.fail("%s: submission state %q, want %q", ls.Name, out.state, wantState)
				continue
			}
			ms := float64(out.latency.Nanoseconds()) / 1e6
			latency += ms
			submit = append(submit, float64(out.submit.Nanoseconds())/1e6)
			served++
			if !j.first {
				hits++
				hit = append(hit, ms)
				continue
			}
			var res noc.Result
			if err := json.Unmarshal(rec.Payload, &res); err != nil {
				rep.fail("%s: payload: %v", ls.Name, err)
				continue
			}
			run += rec.WallMS
			pk += float64(res.PacketsDelivered)
			fl += float64(res.FlitsDelivered)
			cy += float64(res.Cycles)
			miss = append(miss, ms)
			overhead = append(overhead, ms-rec.WallMS)
			rates.add(ls.Spec, rec.WallMS, res)
		}
		// The two clients keep a job in flight each, so their summed
		// latencies are the jobs' wall time that the pass's CPU time is
		// charged to.
		perPass.add(rates, miss, cpuPerWall(p.cpu, latency), len(order), p.cpu)
		// The per-layer numbers come from the same passes: the clients
		// time the service's public HTTP surface, with nothing wrapped.
		storeMiB = append(storeMiB, p.storeMiB)
		runMS = append(runMS, run)
		util = append(util, run/(2*float64(p.wall.Nanoseconds())/1e6))
		packets = append(packets, pk)
		flitsPerCycle = append(flitsPerCycle, fl/cy)
	}
	rep.e2e["setup_s"] = median(setups)
	perPass.fill(rep.e2e)
	rep.layer["service.submit_ms"] = percentile(submit, 50)
	rep.layer["service.overhead_ms"] = percentile(overhead, 50)
	rep.layer["service.hit_ratio"] = float64(hits) / float64(served)
	rep.layer["service.store_mb"] = median(storeMiB)
	rep.layer["service.hit_p50_ms"] = percentile(hit, 50)
	rep.layer["service.hit_p90_ms"] = percentile(hit, 90)
	rep.layer["harness.run_ms_sum"] = median(runMS)
	rep.layer["harness.utilization"] = median(util)
	rep.layer["traffic.packets"] = median(packets)
	rep.layer["noc.flits_per_cycle"] = median(flitsPerCycle)
	// Nothing is instrumented on this workload, so there is no traced
	// pass and trace.overhead stays 0.
	return rep
}
