// Package serve is the worker role of the serving tier: a JSON-over-HTTP
// server that turns trained SRDA models into a service.  A worker is
// backed by an internal/registry model store holding many named,
// versioned models per process (multi-tenant); requests select a model
// by name and default to the worker's default model, so the single-model
// deployment from PR 1 keeps working unchanged.  Incoming samples —
// dense vectors or sparse {index: value} maps, one or many per request —
// are micro-batched across concurrent requests and classified through
// each model's GEMM-lowered batch path, the way a production inference
// stack amortizes dispatch overhead.  The server supports atomic model
// publish/rollback and hot reload (in-flight batches finish on the
// version they started with), graceful drain on shutdown, and Prometheus
// text-format metrics.
//
// Endpoints:
//
//	POST /v1/predict  classify samples (optionally returning embeddings)
//	GET  /v1/models   list the registry's live models
//	GET  /healthz     liveness plus live-model metadata and p99 latency
//	GET  /metrics     Prometheus text exposition (serve + registry)
//
// Use Client for typed access from Go over HTTP, or Server.Predict for
// the in-process transport internal/router uses in co-located mode.
// See doc/SHARDING.md for the router/worker topology.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"srda/internal/core"
	"srda/internal/obs"
	"srda/internal/registry"
)

// DefaultModelName is the registry name served when a request does not
// name a model; Swap, ReloadFromFile and WatchFile publish to it.
const DefaultModelName = registry.DefaultName

// DefaultMaxBodyBytes caps a request body; the router holds its predict
// bodies to the same cap.
const DefaultMaxBodyBytes = 32 << 20

// maxRequestSamples caps the samples of one predict or observe request.
const maxRequestSamples = 1024

// RetryAfterSeconds is the Retry-After hint on every shed reply of the
// tier: a worker's 503 and a router's 429 and 503 carry the same value.
const RetryAfterSeconds = 1

// Options tunes the server.  The zero value gets sensible defaults from
// New.
type Options struct {
	// MaxBatch caps the samples coalesced from several requests into one
	// inference batch while every worker is busy (default 64).  A request
	// is never split, so a larger one runs as a batch of its own.
	MaxBatch int
	// Workers is the inference worker-pool size (default GOMAXPROCS).
	// The same value bounds the kernel sharding inside the model's batch
	// projection (bitwise-identical at any setting); the shared pool in
	// internal/pool keeps total kernel concurrency bounded even when all
	// inference workers project at once.
	Workers int
	// QueueDepth caps queued samples; past it requests get 503
	// (default 4096).
	QueueDepth int
	// Registry, when non-nil, backs the server with a caller-owned
	// multi-tenant model store (co-located workers share one).  When nil,
	// New creates a private registry holding just the initial model.
	Registry *registry.Registry
	// Tracer records request-scoped span trees (request → batch → kernel)
	// for /v1/predict.  When nil, New creates one whose ring holds
	// obs.DefaultTraceCapacity completed spans; pass an explicit tracer
	// to share one ring across servers or to inject a test clock.
	Tracer *obs.Tracer
	// Logger receives the server's structured logs: hot-reload outcomes
	// and rate-limited queue-overflow warnings.  Nil disables logging.
	Logger *obs.Logger
	// Trainer, when non-nil, co-locates a streaming trainer with the
	// worker: POST /v1/observe feeds it labeled samples and its
	// srdaonline_* instruments join the /metrics exposition.  The trainer
	// should publish into the same Registry this server reads, closing
	// the train-while-serving loop in one process.  Nil (the default)
	// leaves the endpoint unregistered and the exposition unchanged.
	Trainer Trainer
	// Flight, when non-nil, is the process flight recorder: predict
	// latencies feed its p99-breach trigger and queue overflow fires its
	// queue_full trigger.  Nil disables both (no-op calls).
	Flight *obs.FlightRecorder
	// Exemplars, when non-nil, links the predict-latency sketch to an
	// exemplar store so latency outliers carry the TraceID that produced
	// them (served at /debug/exemplars by cmd/srdaserve).  Stays outside
	// the metrics registry: the /metrics exposition is unchanged.
	Exemplars *obs.ExemplarStore
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4096
	}
	return o
}

// Server serves predictions from an atomically swappable set of SRDA
// models held in a registry.
type Server struct {
	opts    Options
	reg     *registry.Registry
	queue   chan *pending
	queued  atomic.Int64 // samples of the requests in queue
	workCh  chan []*pending
	stop    chan struct{}
	stopped atomic.Bool
	live    atomic.Int32  // dispatcher goroutines still running
	drained chan struct{} // closed by the last dispatcher to exit
	watchWG sync.WaitGroup
	metrics *metrics
	mux     *http.ServeMux
	start   time.Time
	tracer  *obs.Tracer
	logger  *obs.Logger
}

// New starts the dispatcher (batcher + worker pool).  When opts.Registry
// is nil, m becomes the registry's default model and must carry class
// centroids (i.e. come from Fit/FitCSR or a file they saved); with a
// caller-owned registry m may be nil and requests are answered from
// whatever the registry holds.
func New(m *core.Model, opts Options) (*Server, error) {
	s, err := newServer(m, opts)
	if err != nil {
		return nil, err
	}
	s.startDispatch()
	return s, nil
}

// startDispatch starts the batcher and the worker pool.
func (s *Server) startDispatch() {
	s.live.Store(int32(1 + s.opts.Workers))
	go func() {
		defer s.dispatcherDone()
		s.batcher()
	}()
	for i := 0; i < s.opts.Workers; i++ {
		//srdalint:ignore ctxflow bounded fan-out: exactly opts.Workers dispatch goroutines, joined on drain
		go s.worker()
	}
}

// dispatcherDone marks one dispatcher goroutine exited; the last one
// closes drained.
func (s *Server) dispatcherDone() {
	if s.live.Add(-1) == 0 {
		close(s.drained)
	}
}

// newServer builds a Server whose dispatcher is not yet started.
func newServer(m *core.Model, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	reg := opts.Registry
	if reg == nil {
		if m == nil {
			return nil, fmt.Errorf("serve: nil model")
		}
		reg = registry.New(registry.Options{Workers: opts.Workers, Logger: opts.Logger})
	}
	if m != nil {
		if m.Centroids == nil {
			return nil, fmt.Errorf("serve: model carries no class centroids; retrain with srda.Fit/FitCSR or srdatrain")
		}
		m.Workers = opts.Workers
		if _, err := reg.Publish(DefaultModelName, m); err != nil {
			return nil, err
		}
	}
	s := &Server{
		opts:    opts,
		reg:     reg,
		queue:   make(chan *pending, opts.QueueDepth), // admission keeps at most QueueDepth requests queued
		workCh:  make(chan []*pending),
		stop:    make(chan struct{}),
		drained: make(chan struct{}),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		tracer:  opts.Tracer,
		logger:  opts.Logger,
	}
	if s.tracer == nil {
		s.tracer = obs.NewTracer(0)
	}
	s.metrics = newMetrics(
		s.queued.Load,
		func() int64 { return int64(s.ModelSeq()) },
	)
	if opts.Exemplars != nil {
		s.metrics.latencySketch.AttachExemplars(LatencySketchName, opts.Exemplars)
	}
	s.mux.HandleFunc("/v1/predict", s.instrument("/v1/predict", s.handlePredict))
	s.mux.HandleFunc("/v1/models", s.instrument("/v1/models", s.handleModels))
	s.mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux.HandleFunc("/v1/sketches", s.instrument("/v1/sketches", s.handleSketches))
	if opts.Trainer != nil {
		s.mux.HandleFunc("/v1/observe", s.instrument("/v1/observe", s.handleObserve))
	}
	return s, nil
}

// Handler returns the HTTP handler exposing all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's metrics registry, so a debug listener can
// expose it alongside the router's, the model registry's and the
// trainer's.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// Tracer returns the server's request tracer; a debug listener exports
// its ring at /debug/traces, and shutdown flushes it to -trace-out.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Model returns the live default model (nil when the registry holds no
// default entry).
func (s *Server) Model() *core.Model {
	if snap, ok := s.reg.Get(DefaultModelName); ok {
		return snap.Model
	}
	return nil
}

// ModelSeq returns the default model's monotonic version (1 for the
// model the server started with; each successful Swap increments it, and
// rollbacks keep moving forward).  Zero when no default model exists.
func (s *Server) ModelSeq() uint64 {
	if snap, ok := s.reg.Get(DefaultModelName); ok {
		return snap.Version
	}
	return 0
}

// LatencyP99 returns the streaming 99th-percentile predict latency in
// seconds (0 until the first observation) — the admission-control signal
// the router's health checks read, mirroring the
// srdaserve_request_latency_p99 gauge.
func (s *Server) LatencyP99() float64 {
	if p := s.metrics.latencySketch.Query(0.99); !math.IsNaN(p) {
		return p
	}
	return 0
}

// Swap atomically publishes m as the next version of the default model
// and returns its version.  Batches already dispatched keep the model
// pointer they loaded, so in-flight requests finish on the old version.
func (s *Server) Swap(m *core.Model) (uint64, error) {
	if m == nil || m.Centroids == nil {
		return 0, fmt.Errorf("serve: refusing to swap in a model without centroids")
	}
	m.Workers = s.opts.Workers
	snap, err := s.reg.Publish(DefaultModelName, m)
	if err != nil {
		return 0, err
	}
	return snap.Version, nil
}

// Close stops the dispatcher, draining already-queued requests first.  Call
// it after the HTTP listener has stopped accepting requests (e.g. after
// http.Server.Shutdown) so no handler is still enqueueing; handlers caught
// mid-wait are released with a 503.  The context bounds the drain; a
// drain that has finished returns nil even if the context has expired.
func (s *Server) Close(ctx context.Context) error {
	if !s.stopped.CompareAndSwap(false, true) {
		return nil
	}
	close(s.stop)
	s.watchWG.Wait()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
	}
	select {
	case <-s.drained:
		return nil
	default:
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}

// instrument wraps a handler with request counting.  Predict
// latency is observed inside handlePredict/Predict so every observation
// carries the trace it belongs to (exemplars, flight-recorder p99
// trigger).
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		code := h(w, r)
		s.metrics.requests.With(endpoint, strconv.Itoa(code)).Inc()
	}
}

// startRequestSpan opens the worker-side root of a request's span tree,
// continuing whatever trace context reaches the worker: a span already on
// the context (the co-located router's in-process "forward" span) makes
// this a child; otherwise a well-formed traceparent header (an HTTP hop
// from the router or a typed client) makes it a remote continuation under
// the caller's TraceID; otherwise it is a fresh root.
func (s *Server) startRequestSpan(ctx context.Context, name string, h http.Header) (context.Context, *obs.ReqSpan) {
	if parent := obs.SpanFromContext(ctx); parent != nil {
		sp := parent.StartChild(name)
		return obs.ContextWithSpan(ctx, sp), sp
	}
	if h != nil {
		if trace, parent, ok := obs.ExtractTrace(h); ok {
			return s.tracer.StartRemote(ctx, name, trace, parent)
		}
	}
	return s.tracer.StartRoot(ctx, name)
}

// observeLatencyTraced feeds one predict latency to the sketch with the
// trace that produced it (an attached exemplar store keeps the outliers'
// traces), then lets the flight recorder compare the refreshed streaming
// p99 against its SLO.
func (s *Server) observeLatencyTraced(sec float64, trace obs.TraceID) {
	s.metrics.latencySketch.ObserveTraced(sec, trace)
	s.opts.Flight.CheckP99(s.LatencyP99(), trace)
}

// Sample is one input vector: exactly one of Dense or Sparse must be set.
// Sparse maps feature index → value (JSON object keys are strings on the
// wire; encoding/json converts).
type Sample struct {
	Dense  []float64       `json:"dense,omitempty"`
	Sparse map[int]float64 `json:"sparse,omitempty"`
}

// PredictRequest is the POST /v1/predict payload.  A single sample may
// also be sent shorthand as a bare Sample object, in place of Samples.
type PredictRequest struct {
	Samples []Sample `json:"samples,omitempty"`
	// Model selects the registry model answering the request (empty =
	// the server's default model).  It is also the tenant key the router
	// hashes and meters quotas by.
	Model string `json:"model,omitempty"`
	// Embed asks for the (c−1)-dimensional embeddings alongside classes.
	Embed bool `json:"embed,omitempty"`
	Sample
}

// PredictResponse is the predict reply: Classes[i] answers Samples[i].
type PredictResponse struct {
	Classes    []int       `json:"classes"`
	Embeddings [][]float64 `json:"embeddings,omitempty"`
	// Model names the registry model that produced the answer.
	Model string `json:"model,omitempty"`
	// ModelSeq identifies which version of that model produced it.
	ModelSeq uint64 `json:"model_seq"`
}

// Health is the /healthz reply.  Features, Classes, Dim, ModelSeq, and
// ModelLoadedAt describe the default model and are zero when the
// registry holds no default entry.
type Health struct {
	Status        string  `json:"status"`
	Features      int     `json:"features"`
	Classes       int     `json:"classes"`
	Dim           int     `json:"dim"`
	ModelSeq      uint64  `json:"model_seq"`
	ModelLoadedAt string  `json:"model_loaded_at,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	QueueDepth    int     `json:"queue_depth"`
	// Models counts the live registry names.
	Models int `json:"models"`
	// LatencyP99Seconds mirrors the srdaserve_request_latency_p99 gauge;
	// the router's admission control keys off it.
	LatencyP99Seconds float64 `json:"latency_p99_seconds"`
}

// ModelInfo is one /v1/models entry.
type ModelInfo struct {
	Name     string `json:"name"`
	Version  uint64 `json:"version"`
	Bytes    int64  `json:"bytes"`
	LoadedAt string `json:"loaded_at"`
}

// ModelList is the /v1/models reply.
type ModelList struct {
	Models []ModelInfo `json:"models"`
}

type errorReply struct {
	Error string `json:"error"`
}

// Typed predict errors; StatusCode maps them (and any *StatusError) to
// HTTP statuses, so the router's in-memory and HTTP transports agree.
var (
	// ErrQueueFull rejects samples past QueueDepth (503, retryable).
	ErrQueueFull = errors.New("prediction queue full")
	// ErrShuttingDown rejects requests after Close began (503).
	ErrShuttingDown = errors.New("server shutting down")
	// ErrModelShape fails samples whose dimensionality no longer matches
	// the model version that answered the batch (409).
	ErrModelShape = errors.New("sample dimensionality no longer matches the live model (reloaded mid-flight)")
)

// RequestError is a malformed request (HTTP 400).
type RequestError struct{ Msg string }

func (e *RequestError) Error() string { return e.Msg }

func badRequestf(format string, args ...any) *RequestError {
	return &RequestError{Msg: fmt.Sprintf(format, args...)}
}

// UnknownModelError names a model the registry does not hold (HTTP 404).
type UnknownModelError struct{ Name string }

func (e *UnknownModelError) Error() string {
	return fmt.Sprintf("unknown model %q", e.Name)
}

// StatusCode maps a typed predict error to its HTTP status: nil → 200,
// RequestError → 400, UnknownModelError → 404, ErrModelShape → 409,
// ErrQueueFull/ErrShuttingDown → 503, ErrReplyTooLarge → 502,
// StatusError → its own code, anything else → 500.
func StatusCode(err error) int {
	var reqErr *RequestError
	var unkErr *UnknownModelError
	var stErr *StatusError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &reqErr):
		return http.StatusBadRequest
	case errors.As(err, &unkErr):
		return http.StatusNotFound
	case errors.Is(err, ErrModelShape):
		return http.StatusConflict
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrReplyTooLarge):
		return http.StatusBadGateway
	case errors.As(err, &stErr):
		return stErr.Code
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client hung up; there is nobody to tell.
	_ = json.NewEncoder(w).Encode(v)
	return code
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) int {
	return writeJSON(w, code, errorReply{Error: fmt.Sprintf(format, args...)})
}

// writeReply writes an encoded reply, advertising RetryAfterSeconds on
// 503s.
func writeReply(w http.ResponseWriter, code int, reply []byte) int {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client hung up; there is nobody to tell.
	_, _ = w.Write(reply)
	return code
}

// encodeReply encodes v as writeJSON would write it, newline included;
// a value that does not encode is a 500.
func encodeReply(code int, v any) (int, []byte) {
	b, err := json.Marshal(v)
	if err != nil {
		return ErrorBody(err)
	}
	return code, append(b, '\n')
}

// ErrorBody renders err as an error reply: its status (StatusCode) and
// {"error": message}.
func ErrorBody(err error) (int, []byte) {
	b, _ := json.Marshal(errorReply{Error: err.Error()}) // a struct of one string always encodes
	return StatusCode(err), append(b, '\n')
}

// Predict answers one request through the in-process transport: the same
// validation, micro-batching dispatch, and tracing as POST /v1/predict,
// with typed errors instead of HTTP statuses (map them with StatusCode).
// In-process callers that hold a typed request use it; the router's
// co-located transport forwards the encoded body to PredictBody instead.
func (s *Server) Predict(ctx context.Context, req *PredictRequest) (*PredictResponse, error) {
	if s.stopped.Load() {
		return nil, ErrShuttingDown
	}
	begin := time.Now()
	ctx, root := s.startRequestSpan(ctx, "request", nil)
	defer root.End()
	_, sp := obs.StartSpan(ctx, "parse")
	p, err := s.buildPending(req)
	sp.End()
	if err != nil {
		return nil, err
	}
	p.span = root
	if err := s.submit(ctx, p); err != nil {
		return nil, err
	}
	s.observeLatencyTraced(time.Since(begin).Seconds(), root.TraceID())
	return p.response(), nil
}

// PredictBody answers one encoded POST /v1/predict body and returns the
// HTTP status and the JSON reply.  The body is parsed once, by the
// scanner in scan.go, straight into dispatcher form.  h carries the
// caller's trace header (nil in process, where a span on ctx continues
// the trace instead).  The HTTP handler and the router's co-located
// transport both call it.
func (s *Server) PredictBody(ctx context.Context, h http.Header, body []byte) (int, []byte) {
	begin := time.Now()
	var trace obs.TraceID
	defer func() { s.observeLatencyTraced(time.Since(begin).Seconds(), trace) }()
	if s.stopped.Load() {
		return ErrorBody(ErrShuttingDown)
	}
	ctx, root := s.startRequestSpan(ctx, "request", h)
	defer root.End()
	trace = root.TraceID()
	_, sp := obs.StartSpan(ctx, "parse")
	p, err := s.parsePredict(body)
	sp.End()
	if err != nil {
		return ErrorBody(err)
	}
	p.span = root
	if err := s.submit(ctx, p); err != nil {
		code, reply := ErrorBody(err)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			code = http.StatusServiceUnavailable // the caller is gone; not a server fault
		}
		return code, reply
	}
	return encodeReply(http.StatusOK, p.response())
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeErr(w, http.StatusMethodNotAllowed, "POST required")
	}
	body, err := ReadRequestBody(w, r, DefaultMaxBodyBytes)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, "request body: %v", err)
	}
	code, reply := s.PredictBody(r.Context(), r.Header, body)
	return writeReply(w, code, reply)
}

// parsePredict scans a predict body and validates it like a typed
// request.
func (s *Server) parsePredict(body []byte) (*pending, error) {
	sc, err := scanPredict(body, maxRequestSamples)
	var p *pending
	if err == nil {
		p, err = s.newPending(sc.out.model, sc.out.embed, sc.out.recs, sc.out.top)
	}
	if err != nil {
		sc.release()
		return nil, err
	}
	p.scanner = sc
	return p, nil
}

// buildPending validates a typed predict request; its samples take the
// scanner's form first, so both paths share newPending's rules.
func (s *Server) buildPending(req *PredictRequest) (*pending, error) {
	out := make([]rawSample, len(req.Samples))
	for i, smp := range req.Samples {
		out[i] = typedSample(smp)
	}
	return s.newPending(req.Model, req.Embed, out, typedSample(req.Sample))
}

// typedSample is smp in the scanner's form.
func typedSample(smp Sample) rawSample {
	out := rawSample{
		dense: smp.Dense,
		cols:  make([]int, 0, len(smp.Sparse)),
		vals:  make([]float64, 0, len(smp.Sparse)),
	}
	//srdalint:ignore maprange keys are sorted by sortSparse before any arithmetic sees them
	for j, v := range smp.Sparse {
		out.cols = append(out.cols, j)
		out.vals = append(out.vals, v)
	}
	return out
}

func (p *pending) response() *PredictResponse {
	return &PredictResponse{
		Classes:    p.classes,
		Embeddings: p.embeddings,
		Model:      p.model,
		ModelSeq:   p.modelSeq,
	}
}

// newPending validates one predict request's samples against the
// registry and converts them to dispatcher form, returning typed errors.
// The request carries either a samples list or the single-sample
// shorthand top: a shorthand beside samples would answer nothing, so the
// request is refused rather than the shorthand ignored.
func (s *Server) newPending(model string, embed bool, samples []rawSample, top rawSample) (*pending, error) {
	hasTop := len(top.dense) > 0 || len(top.cols) > 0
	switch {
	case hasTop && len(samples) > 0:
		return nil, badRequestf("samples and a single-sample shorthand in one request")
	case hasTop:
		samples = []rawSample{top}
	case len(samples) == 0:
		return nil, badRequestf("no samples")
	}
	if len(samples) > maxRequestSamples {
		return nil, badRequestf("%d samples exceeds the per-request cap of %d",
			len(samples), maxRequestSamples)
	}
	name := model
	if name == "" {
		name = DefaultModelName
	}
	snap, ok := s.reg.Get(name)
	if !ok {
		return nil, &UnknownModelError{Name: name}
	}
	n := snap.Model.W.Rows
	p := &pending{
		model:   name,
		ptr:     make([]int, 1, len(samples)+1),
		classes: make([]int, len(samples)),
		done:    make(chan struct{}),
	}
	if embed {
		p.embeddings = make([][]float64, len(samples))
	}
	for i := range samples {
		if err := p.add(i, &samples[i], n); err != nil {
			return nil, badRequestf("sample %d: %v", i, err)
		}
	}
	return p, nil
}

// submit enqueues the request and waits for its batch under a "queue"
// span.  It returns the request's body scanner to the pool when no batch
// can read p.dense any more: the request was refused, or its batch has
// answered.  A caller that stops waiting leaves the scanner to the GC,
// since the request may still be queued.
func (s *Server) submit(ctx context.Context, p *pending) error {
	_, queueSp := obs.StartSpan(ctx, "queue")
	defer queueSp.End()
	if err := s.enqueue(p); err != nil {
		p.scanner.release()
		return err
	}
	select {
	case <-p.done:
	case <-ctx.Done():
		return ctx.Err()
	case <-s.stop:
		return ErrShuttingDown
	}
	p.scanner.release()
	return p.err
}

// add validates sample i against the model's feature count n and appends
// it in dispatcher form: sorted by column, exact zeros dropped.
func (p *pending) add(i int, smp *rawSample, n int) error {
	if err := checkSample(smp, n); err != nil {
		return err
	}
	if len(smp.dense) > 0 {
		if p.dense == nil {
			p.dense = make([][]float64, p.rows())
		}
		p.dense[i] = smp.dense
		p.width = n
		p.ptr = append(p.ptr, len(p.cols))
		return nil
	}
	for t, j := range smp.cols {
		p.width = max(p.width, j+1)
		if v := smp.vals[t]; v != 0 { //srdalint:ignore floatcmp exact zeros are dropped from the sparse structure, as a CSR build drops them
			p.cols = append(p.cols, j)
			p.vals = append(p.vals, v)
		}
	}
	p.ptr = append(p.ptr, len(p.cols))
	return nil
}

// checkSample is the one place the sample rules live, for predict and
// observe bodies alike: exactly one of dense or sparse, the dense length
// n, finite values, and sparse indices in [0, n), each named once.  It
// sorts a sparse sample's entries by column first: column order makes a
// CSR row's kernel dot products accumulate in index order, bitwise
// reproducible across requests, and puts a repeated column ("1" and
// "01" name the same one) next to its twin.
func checkSample(smp *rawSample, n int) error {
	hasDense, hasSparse := len(smp.dense) > 0, len(smp.cols) > 0
	if hasDense == hasSparse {
		return fmt.Errorf("need exactly one of dense or sparse")
	}
	if hasDense {
		if len(smp.dense) != n {
			return fmt.Errorf("dense sample has %d features, model expects %d", len(smp.dense), n)
		}
		for j, v := range smp.dense {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("feature %d is not finite (%v)", j, v)
			}
		}
		return nil
	}
	sortSparse(smp.cols, smp.vals)
	for t, j := range smp.cols {
		v := smp.vals[t]
		if j < 0 {
			return fmt.Errorf("negative feature index %d", j)
		}
		if j >= n {
			return fmt.Errorf("feature index %d out of range for a %d-feature model", j, n)
		}
		if t > 0 && j == smp.cols[t-1] {
			return fmt.Errorf("feature index %d repeated", j)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("feature %d is not finite (%v)", j, v)
		}
	}
	return nil
}

// HealthSnapshot builds the /healthz reply programmatically — the same
// struct the endpoint serves, used by the router's in-process health
// checks in co-located mode.
func (s *Server) HealthSnapshot() *Health {
	h := &Health{
		Status:            "ok",
		UptimeSeconds:     time.Since(s.start).Seconds(),
		QueueDepth:        int(s.queued.Load()),
		Models:            s.reg.Len(),
		LatencyP99Seconds: s.LatencyP99(),
	}
	if snap, ok := s.reg.Get(DefaultModelName); ok {
		h.Features = snap.Model.W.Rows
		h.Classes = snap.Model.NumClasses
		h.Dim = snap.Model.Dim()
		h.ModelSeq = snap.Version
		h.ModelLoadedAt = snap.LoadedAt.UTC().Format(time.RFC3339Nano)
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeErr(w, http.StatusMethodNotAllowed, "GET required")
	}
	return writeJSON(w, http.StatusOK, s.HealthSnapshot())
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeErr(w, http.StatusMethodNotAllowed, "GET required")
	}
	snaps := s.reg.List()
	out := ModelList{Models: make([]ModelInfo, 0, len(snaps))}
	for _, snap := range snaps {
		out.Models = append(out.Models, ModelInfo{
			Name:     snap.Name,
			Version:  snap.Version,
			Bytes:    snap.Bytes,
			LoadedAt: snap.LoadedAt.UTC().Format(time.RFC3339Nano),
		})
	}
	return writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeErr(w, http.StatusMethodNotAllowed, "GET required")
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	w.WriteHeader(http.StatusOK)
	s.metrics.writeProm(w)
	s.reg.Metrics().WritePrometheus(w)
	if s.opts.Trainer != nil {
		s.opts.Trainer.Metrics().WritePrometheus(w)
	}
	return http.StatusOK
}

// LatencySketchName keys the predict-latency sketch in LatencySketches
// and the /v1/sketches reply; the federation layer merges snapshots
// under this name into cluster-level quantiles.
const LatencySketchName = "srdaserve_request_latency"

// LatencySketches returns serializable snapshots of the server's CKMS
// quantile sketches, keyed by metric base name.  The federation scraper
// merges these — the p50/p95/p99 gauges on /metrics are pre-collapsed
// estimates and cannot be combined across replicas without losing the
// rank-error bound.
func (s *Server) LatencySketches() map[string]obs.SketchSnapshot {
	return map[string]obs.SketchSnapshot{
		LatencySketchName: s.metrics.latencySketch.Snapshot(),
	}
}

func (s *Server) handleSketches(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeErr(w, http.StatusMethodNotAllowed, "GET required")
	}
	return writeJSON(w, http.StatusOK, s.LatencySketches())
}
