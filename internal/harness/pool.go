package harness

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Pool is the harness's job scheduler: a persistent worker pool that
// accepts jobs one at a time, dedups them by digest while in flight,
// serves Options.Lookup cache hits without executing, and dispatches
// pending work highest-Priority-first. Search drivers (cmd/explore) and
// the daemon submit incrementally, deciding what to evaluate next based
// on earlier results: a promotion submitted mid-run jumps ahead of
// queued lower-priority points instead of waiting behind them. Run is a
// batch wrapper over it.
//
// A job failure is confined to its Future — the pool keeps executing
// other work, because a search treats a failed point as infeasible
// rather than fatal (Run's pools instead stop at the first failure).
// Context cancellation (Options.Ctx) stops everything: queued jobs fail
// with the context error and workers exit after their in-flight job
// drains.
type Pool struct {
	opts    Options
	workers int
	retries int
	// failFast makes the first failed job cancel the pool with that
	// job's own error (Run's batch semantics).
	failFast bool

	mu       sync.Mutex
	cond     *sync.Cond
	queue    poolQueue
	seen     map[string]*Future
	seq      int
	closed   bool
	canceled error
	wg       sync.WaitGroup
	stop     chan struct{}
}

// Future is the handle of one submitted job. Wait blocks until the job
// finishes (executed, served from cache, or failed) and is safe to call
// from any number of goroutines.
type Future struct {
	done   chan struct{}
	rec    Record
	err    error
	cached bool
}

// Wait blocks until the job resolves and returns its record.
func (f *Future) Wait() (Record, error) {
	<-f.done
	return f.rec, f.err
}

// Cached reports whether the result was served from Lookup or an
// in-flight dedup rather than executed by this pool. Valid after Wait.
func (f *Future) Cached() bool {
	<-f.done
	return f.cached
}

type poolItem struct {
	job Job
	fut *Future
	seq int
}

// poolQueue is a max-heap on (Priority, -seq): highest priority first,
// FIFO within a priority level.
type poolQueue []*poolItem

func (q poolQueue) Len() int { return len(q) }
func (q poolQueue) Less(i, j int) bool {
	if q[i].job.Priority != q[j].job.Priority {
		return q[i].job.Priority > q[j].job.Priority
	}
	return q[i].seq < q[j].seq
}
func (q poolQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *poolQueue) Push(x any)   { *q = append(*q, x.(*poolItem)) }
func (q *poolQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}
func (q *poolQueue) popItem() *poolItem { return heap.Pop(q).(*poolItem) }

// NewPool starts the workers and begins progress accounting. Close must
// be called to stop them; futures from Submit resolve independently.
func NewPool(opts Options) *Pool { return newPool(opts, false) }

func newPool(opts Options, failFast bool) *Pool {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	retries := opts.Retries
	if retries == 0 {
		retries = defaultRetries
	} else if retries < 0 {
		retries = 0
	}
	p := &Pool{
		opts: opts, workers: workers, retries: retries, failFast: failFast,
		seen: make(map[string]*Future),
		stop: make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	if opts.Progress != nil {
		opts.Progress.begin(0, workers)
		if opts.CachedJobs > 0 {
			opts.Progress.jobCached(opts.CachedJobs)
		}
	}
	if opts.Ctx != nil {
		go func() {
			select {
			case <-opts.Ctx.Done():
				p.cancel(fmt.Errorf("harness: pool canceled: %w", opts.Ctx.Err()))
			case <-p.stop:
			}
		}()
	}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Submit enqueues one job and returns its future. A digest already
// submitted to this pool (or found in Options.Lookup) resolves to the
// existing/cached record without executing again; both count as cache
// hits in Progress, keeping the ETA honest when a warmed archive makes
// most submissions free.
func (p *Pool) Submit(j Job) *Future {
	if j.Digest == "" {
		f := &Future{done: make(chan struct{}), err: fmt.Errorf("harness: job %q has no digest", j.Name)}
		close(f.done)
		return f
	}
	p.mu.Lock()
	if f, ok := p.seen[j.Digest]; ok {
		p.mu.Unlock()
		if p.opts.Progress != nil {
			p.opts.Progress.jobCached(1)
		}
		return f
	}
	if p.opts.Lookup != nil {
		if rec, ok := p.opts.Lookup(j.Digest); ok {
			f := &Future{done: make(chan struct{}), rec: rec, cached: true}
			close(f.done)
			p.seen[j.Digest] = f
			p.mu.Unlock()
			if p.opts.Progress != nil {
				p.opts.Progress.jobCached(1)
			}
			return f
		}
	}
	f := &Future{done: make(chan struct{})}
	if p.canceled != nil {
		f.err = p.canceled
		close(f.done)
		p.mu.Unlock()
		return f
	}
	if p.closed {
		f.err = fmt.Errorf("harness: submit on closed pool: job %q", j.Name)
		close(f.done)
		p.mu.Unlock()
		return f
	}
	p.seen[j.Digest] = f
	heap.Push(&p.queue, &poolItem{job: j, fut: f, seq: p.seq})
	p.seq++
	p.mu.Unlock()
	if p.opts.Progress != nil {
		p.opts.Progress.jobAdded(1)
	}
	p.cond.Signal()
	return f
}

// cancel fails every queued job and stops dispatch. In-flight jobs drain
// (their closures observe Options.Ctx at their next poll).
func (p *Pool) cancel(err error) {
	p.mu.Lock()
	if p.canceled == nil {
		p.canceled = err
		for _, it := range p.queue {
			it.fut.err = err
			close(it.fut.done)
		}
		p.queue = nil
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Close stops accepting work, waits for queued and in-flight jobs to
// drain, and tears the workers down. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	if p.opts.Progress != nil {
		p.opts.Progress.finish()
	}
}

// worker pops the highest-priority pending job, executes it with retry
// and panic isolation, streams the record, and resolves the future.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed && p.canceled == nil {
			p.cond.Wait()
		}
		if p.canceled != nil || len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		it := p.queue.popItem()
		p.mu.Unlock()

		// The watcher drains the queue on cancellation, but a worker may
		// pop an item between ctx firing and the watcher running; never
		// start new work under a canceled context.
		if p.opts.Ctx != nil && p.opts.Ctx.Err() != nil {
			it.fut.err = fmt.Errorf("harness: pool canceled: %w", p.opts.Ctx.Err())
			close(it.fut.done)
			continue
		}

		rec, err := execute(it.job, p.retries, p.opts.Ctx)
		if err == nil && p.opts.Stream != nil {
			if serr := p.opts.Stream.Write(rec); serr != nil {
				err = fmt.Errorf("harness: streaming %s: %w", it.job.Name, serr)
			}
		}
		if err == nil && p.opts.Observer != nil {
			p.opts.Observer(rec)
		}
		it.fut.rec, it.fut.err = rec, err
		close(it.fut.done)
		if err != nil && p.failFast {
			p.cancel(err)
		}
		if p.opts.Progress != nil {
			p.opts.Progress.jobDone(time.Duration(rec.WallMS * float64(time.Millisecond)))
		}
	}
}
