// Package pool provides the bounded, shared worker pool behind every
// parallel kernel in this repository (internal/blas Par*, internal/sparse
// Par*, internal/mat Par*).  A single process-wide pool sized by
// GOMAXPROCS at startup is reused across all calls, so a hot training or
// serving loop never pays a per-call goroutine spawn; kernels only hand
// row shards to workers that are already parked.
//
// Determinism contract: the pool never touches data — it only partitions
// an index range [0, n) into contiguous spans and runs a caller-supplied
// closure on each span.  Kernels built on it shard exclusively over
// independent output rows (or columns), with every output element computed
// by exactly the same sequence of floating-point operations as the
// sequential kernel.  Results are therefore bitwise identical to the
// sequential code regardless of worker count or scheduling order; the
// equivalence suites in internal/blas and internal/sparse enforce this for
// every kernel at several worker counts.
//
// Deadlock safety under nesting (the LSQR solver spreading its column
// groups over the pool for a user operator whose own mat-vecs are
// parallel, for example) comes from the handoff discipline: a span is
// given to a worker only if one is idle at that instant — otherwise the
// submitting goroutine runs the span inline.
// Every span is always actively executing somewhere, so Run can never
// block on work that nobody is free to start.
package pool

import (
	"context"
	"runtime"
	"sync"

	"srda/internal/obs"
)

// Pool is a fixed-size set of long-lived worker goroutines.  The zero
// value is not usable; construct with New or use the process-wide Shared
// pool.  Workers are started lazily on the first Run, so merely importing
// a package that holds a Pool costs nothing.
type Pool struct {
	size  int
	tasks chan func()
	once  sync.Once
}

// New creates a pool of the given size (minimum 1).  The workers live for
// the life of the process; pools are meant to be created once and shared,
// which is why there is no Close.
func New(size int) *Pool {
	if size < 1 {
		size = 1
	}
	// Unbuffered on purpose: a send succeeds only when a worker is parked
	// at the receive, which is what makes the inline fallback in Run a
	// guarantee of progress rather than a heuristic.
	return &Pool{size: size, tasks: make(chan func())}
}

// Size returns the number of worker goroutines.
func (p *Pool) Size() int { return p.size }

func (p *Pool) startWorkers() {
	p.once.Do(func() {
		for i := 0; i < p.size; i++ {
			//srdalint:ignore ctxflow this IS the bounded worker set: exactly p.size goroutines for the pool's lifetime
			go func() {
				for task := range p.tasks {
					task()
				}
			}()
		}
	})
}

// Run partitions [0, n) into at most shards contiguous spans of
// near-equal length and executes fn(lo, hi) once per span, returning when
// every span has finished.  shards <= 0 asks for the pool size.  The
// calling goroutine always executes the last span itself, and any span no
// worker is free to take immediately runs inline on the caller too, so
// Run makes progress even when the pool is saturated by enclosing
// parallel work.
//
// fn must treat its spans as independent: spans of one Run execute
// concurrently, and Run itself provides no ordering between them beyond
// completion before return.  Shard boundaries depend only on (n, shards),
// never on scheduling, so callers that need reproducible partitions get
// them for free.
func (p *Pool) Run(shards, n int, fn func(lo, hi int)) { p.run(shards, n, false, fn) }

func (p *Pool) run(shards, n int, upper bool, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if shards <= 0 {
		shards = p.size
	}
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		fn(0, n)
		return
	}
	p.startWorkers()
	var wg sync.WaitGroup
	lo := 0
	for s := 1; s < shards; s++ {
		hi := spanStart(n, shards, s, upper)
		if hi == lo {
			// A row heavier than one share leaves this span empty.
			continue
		}
		spanLo, spanHi := lo, hi
		wg.Add(1)
		body := func() {
			defer wg.Done()
			fn(spanLo, spanHi)
		}
		submitted := obs.NowStamp()
		select {
		case p.tasks <- func() {
			queueWait.Observe(submitted.Seconds())
			body()
		}:
			spansDispatched.Inc()
		default:
			// No worker is idle right now; running inline keeps every
			// span actively executing and makes nested Runs deadlock-free.
			spansInline.Inc()
			body()
		}
		lo = hi
	}
	fn(lo, n)
	wg.Wait()
}

// spanStart returns the first row of span s when [0, n) is cut into
// shards spans (1 <= shards <= n, 0 <= s <= shards).  Plain spans differ
// in length by at most one.  Upper spans cut an n-row upper triangle,
// where row i weighs n−i: span s starts at the smallest row b whose
// prefix area Σ_{i<b}(n−i) reaches s/shards of the total.  A span's area
// therefore exceeds the ideal share by less than one row, and the last
// span is never empty.  Pure integer arithmetic, no allocation.
func spanStart(n, shards, s int, upper bool) int {
	if !upper {
		return s*(n/shards) + min(s, n%shards)
	}
	target := s * (n * (n + 1) / 2)
	lo, hi := 0, n
	for lo < hi {
		b := int(uint(lo+hi) >> 1)
		if (b*n-b*(b-1)/2)*shards >= target {
			hi = b
		} else {
			lo = b + 1
		}
	}
	return lo
}

// shared is the process-wide pool every Par* kernel uses, sized by
// GOMAXPROCS at startup.  Requesting more shards than workers is allowed
// (Run only bounds concurrency, not sharding), which is how the
// equivalence tests exercise 7-way sharding on small machines.
var shared = New(runtime.GOMAXPROCS(0))

// Shared returns the process-wide pool.
func Shared() *Pool { return shared }

// Do runs fn over [0, n) on the shared pool split into at most workers
// spans; workers <= 0 means GOMAXPROCS.  This is the single entry point
// the parallel kernels use.
func Do(workers, n int, fn func(lo, hi int)) { shared.Run(workers, n, fn) }

// DoUpper is Do over the rows of an n-row upper triangle, split into
// spans of near-equal area (row i weighs n−i, see spanStart) instead of
// near-equal row counts: the split that balances the Gram and Cholesky
// kernels, whose row i costs O(n−i).  Callers whose row i costs O(i) —
// the lower triangle — shard the reversed index:
// DoUpper(w, n, func(lo, hi int) { f(n-hi, n-lo) }).
func DoUpper(workers, n int, fn func(lo, hi int)) { shared.run(workers, n, true, fn) }

// DoCtx is Do under request-scoped tracing: when ctx carries an active
// span (obs.StartSpan), the whole sharded run is recorded as one
// "pool.do" child covering dispatch through completion.  Without a span
// the overhead is a nil check.  The context carries only the span —
// cancellation is deliberately not consulted, because a dispatched shard
// set must always run to completion to keep outputs bitwise identical to
// the sequential kernel.
func DoCtx(ctx context.Context, workers, n int, fn func(lo, hi int)) {
	_, sp := obs.StartSpan(ctx, "pool.do")
	shared.Run(workers, n, fn)
	sp.End()
}
