package obs

// Request-scoped tracing.  Tracer records a *tree* of spans correlated by
// a TraceID across goroutine hops.  A fit hangs its stages ("responses",
// "gram", "cholesky", "lsqr", ...) under a caller-provided span through
// StartChild.  An HTTP request enters serve.Server, its samples are
// coalesced with other requests' by the micro-batch dispatcher, and the
// batch finally runs the GEMM kernels — three goroutines, one logical
// request.  Spans propagate
// through context.Context, completed spans land in a fixed-size ring
// buffer (old traffic is evicted, never reallocated), and the ring
// exports deterministically as Chrome trace-event JSON readable by
// Perfetto (chrometrace.go).
//
// The nil discipline matches the rest of obs: a nil *Tracer, a context
// without a span, and a nil *ReqSpan are all free no-ops, so the serving
// and kernel call-sites instrument unconditionally.

import (
	"context"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID correlates every span of one logical request.  IDs are assigned
// from a per-tracer counter in the low 32 bits, namespaced by a
// per-process epoch in the high 32 bits (see NewTracerSeeded), so they
// are deterministic under a deterministic request order and seed — and
// never collide when traces from several processes are merged.
type TraceID uint64

// SpanID identifies one span within a tracer.  0 is reserved to mean
// "no parent" (a root span).
type SpanID uint64

// SpanRecord is one completed span in the tracer's ring.
type SpanRecord struct {
	Trace    TraceID
	ID       SpanID
	Parent   SpanID // 0 for root spans
	Name     string
	Start    time.Time
	Duration time.Duration
}

// Tracer assigns trace/span IDs and keeps the most recent completed spans
// in a ring buffer of fixed capacity.  All methods are safe for
// concurrent use; a nil *Tracer is a valid no-op.
type Tracer struct {
	clock    Clock
	epoch    uint64 // high-32-bit ID namespace; 0 under NewTracerClock
	traceIDs atomic.Uint64
	spanIDs  atomic.Uint64
	evicted  atomic.Uint64

	mu      sync.Mutex
	process string // export label for merged multi-process timelines
	ring    []SpanRecord
	next    int  // ring slot the next record lands in
	full    bool // the ring has wrapped at least once
}

// DefaultTraceCapacity is the ring size NewTracer uses for capacity <= 0.
const DefaultTraceCapacity = 16384

// tracerSeeds distinguishes tracers created inside one process so two
// NewTracer calls in the same nanosecond still derive distinct epochs.
var tracerSeeds atomic.Uint64

// NewTracer creates a tracer on the wall clock whose ring holds capacity
// completed spans (DefaultTraceCapacity when capacity <= 0).  Its ID
// namespace is seeded from the wall clock and pid, so traces exported by
// different processes never share IDs after a tracemerge.
func NewTracer(capacity int) *Tracer {
	seed := uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32 ^ tracerSeeds.Add(1)
	return NewTracerSeeded(capacity, seed, time.Now)
}

// NewTracerClock creates a tracer on an injected clock; tests use a fake
// clock to make exported timestamps and durations deterministic.  The ID
// namespace is the zero epoch (IDs are the bare counters), which keeps
// single-process exports and goldens stable.
func NewTracerClock(capacity int, clock Clock) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	if clock == nil {
		clock = time.Now
	}
	return &Tracer{clock: clock, ring: make([]SpanRecord, capacity)}
}

// NewTracerSeeded creates a tracer whose trace/span IDs live in a
// namespace derived deterministically from seed: the high 32 bits of
// every ID are a nonzero epoch mixed from the seed, the low 32 bits the
// per-tracer counter.  Distinct seeds give disjoint ID spaces, so traces
// recorded by different processes can be merged without collisions while
// staying reproducible under an injected seed.
func NewTracerSeeded(capacity int, seed uint64, clock Clock) *Tracer {
	t := NewTracerClock(capacity, clock)
	epoch := splitmix64(seed) >> 32
	if epoch == 0 {
		epoch = 1
	}
	t.epoch = epoch << 32
	return t
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-distributed 64-bit mix used only for epoch derivation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextTraceID assigns the next trace identifier in the tracer's namespace.
func (t *Tracer) nextTraceID() TraceID {
	return TraceID(t.epoch | t.traceIDs.Add(1)&0xffffffff)
}

// nextSpanID assigns the next span identifier in the tracer's namespace.
func (t *Tracer) nextSpanID() SpanID {
	return SpanID(t.epoch | t.spanIDs.Add(1)&0xffffffff)
}

// SetProcess labels the tracer's Chrome-trace export with a process name,
// which srdareport tracemerge surfaces as the Perfetto process row.
// No-op on nil.
func (t *Tracer) SetProcess(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.process = name
	t.mu.Unlock()
}

// Process returns the export label set by SetProcess ("" on nil).
func (t *Tracer) Process() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.process
}

// ReqSpan is one open span of a request-scoped trace.  End completes it;
// a nil *ReqSpan is a free no-op receiver.
type ReqSpan struct {
	tracer *Tracer
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	ended  atomic.Bool
}

// ctxKey carries the active *ReqSpan through a context.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying s as the active span.
func ContextWithSpan(ctx context.Context, s *ReqSpan) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the active span, or nil when ctx carries none.
func SpanFromContext(ctx context.Context) *ReqSpan {
	s, _ := ctx.Value(ctxKey{}).(*ReqSpan)
	return s
}

// StartRoot opens a new trace: it assigns a fresh TraceID, opens its root
// span, and returns ctx carrying that span for StartSpan calls further
// down the request path.  On a nil Tracer it returns (ctx, nil).
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *ReqSpan) {
	if t == nil {
		return ctx, nil
	}
	s := &ReqSpan{
		tracer: t,
		trace:  t.nextTraceID(),
		id:     t.nextSpanID(),
		name:   name,
		start:  t.clock(),
	}
	return ContextWithSpan(ctx, s), s
}

// StartRemote opens a span that continues a trace started in another
// process: the span keeps the remote TraceID and hangs under the remote
// parent SpanID while drawing its own SpanID from this tracer's
// namespace.  This is how an extracted traceparent header becomes the
// local root of the request's subtree.  A zero trace or parent falls back
// to StartRoot (nothing to continue); nil Tracer returns (ctx, nil).
func (t *Tracer) StartRemote(ctx context.Context, name string, trace TraceID, parent SpanID) (context.Context, *ReqSpan) {
	if t == nil {
		return ctx, nil
	}
	if trace == 0 || parent == 0 {
		return t.StartRoot(ctx, name)
	}
	s := &ReqSpan{
		tracer: t,
		trace:  trace,
		id:     t.nextSpanID(),
		parent: parent,
		name:   name,
		start:  t.clock(),
	}
	return ContextWithSpan(ctx, s), s
}

// StartSpan opens a child of the span carried by ctx and returns ctx
// re-pointed at the child.  When ctx carries no span (tracing disabled or
// never started) it returns (ctx, nil), so instrumented code on the
// numeric side never branches on whether tracing is on.
func StartSpan(ctx context.Context, name string) (context.Context, *ReqSpan) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	return ContextWithSpan(ctx, child), child
}

// StartChild opens a child span under s.  This is the fan-in escape hatch
// for the micro-batch dispatcher, where one batch serves several requests
// and each request's trace gets its own child covering the shared work.
// Nil receiver returns nil.
func (s *ReqSpan) StartChild(name string) *ReqSpan {
	if s == nil {
		return nil
	}
	t := s.tracer
	return &ReqSpan{
		tracer: t,
		trace:  s.trace,
		id:     t.nextSpanID(),
		parent: s.id,
		name:   name,
		start:  t.clock(),
	}
}

// End completes the span and records it in the tracer's ring.  End is
// idempotent (the dispatcher's queue spans can race their own closing)
// and a no-op on nil.
func (s *ReqSpan) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	t := s.tracer
	rec := SpanRecord{
		Trace:    s.trace,
		ID:       s.id,
		Parent:   s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: t.clock().Sub(s.start),
	}
	t.mu.Lock()
	if t.full {
		t.evicted.Add(1)
	}
	t.ring[t.next] = rec
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// TraceID returns the span's trace identifier (0 on nil).
func (s *ReqSpan) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.trace
}

// SpanID returns the span's identifier (0 on nil).
func (s *ReqSpan) SpanID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// Snapshot returns the completed spans currently in the ring, oldest
// first.  Nil receiver returns nil.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]SpanRecord(nil), t.ring[:t.next]...)
	}
	out := make([]SpanRecord, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Evicted returns how many completed spans the ring has overwritten.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	return t.evicted.Load()
}

// SpanCount returns the number of completed spans currently held.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.ring)
	}
	return t.next
}
