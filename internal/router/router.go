// Package router is the front door of the sharded serving tier: it maps
// model names (tenants) onto worker replicas with a seeded consistent-
// hash ring, meters per-tenant token-bucket quotas, and sheds load when
// a target replica reports overload — queue depth or streaming p99
// latency past threshold, the same signals /metrics exposes.
//
// Replicas are Backends: LocalBackend wraps an in-process *serve.Server
// (co-located mode, the arrangement the race tests drive), HTTPBackend
// wraps a serve.Client for workers in other processes.  Health checks
// run against either transport; a replica failing healthFailures
// consecutive checks leaves the ring.  Because each replica owns only
// its own ring points, removing one moves only that replica's tenants —
// everyone else's placement is untouched.
//
// Shed replies are typed: quota breaches are 429, overload and
// no-backend are 503 with Retry-After, both satisfying
// errors.Is(err, serve.ErrShed) so clients can tell policy from
// failure.  See doc/SHARDING.md for the full topology.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"srda/internal/obs"
	"srda/internal/serve"
)

// Backend is one worker replica as the router sees it.
type Backend interface {
	// Name identifies the replica on the ring and in metrics labels.
	Name() string
	// Predict forwards one request and returns the worker's typed reply.
	Predict(ctx context.Context, req *serve.PredictRequest) (*serve.PredictResponse, error)
	// Health fetches the worker's health snapshot.
	Health(ctx context.Context) (*serve.Health, error)
}

// BodyBackend is the optional byte transport of a Backend: it forwards
// an encoded predict body unchanged and returns the worker's status and
// reply bytes, so the router never decodes the samples.  The error is
// non-nil only when no reply came back.  LocalBackend and HTTPBackend
// implement it.  A decorator that embeds Backend does not, so its typed
// Predict keeps seeing every request.
type BodyBackend interface {
	PredictBody(ctx context.Context, body []byte) (status int, reply []byte, err error)
}

// LocalBackend adapts an in-process *serve.Server: co-located router and
// workers share one address space and skip the network entirely.
type LocalBackend struct {
	ReplicaName string
	Server      *serve.Server
}

func (b *LocalBackend) Name() string { return b.ReplicaName }

func (b *LocalBackend) Predict(ctx context.Context, req *serve.PredictRequest) (*serve.PredictResponse, error) {
	return b.Server.Predict(ctx, req)
}

func (b *LocalBackend) PredictBody(ctx context.Context, body []byte) (int, []byte, error) {
	code, reply := b.Server.PredictBody(ctx, nil, body)
	return code, reply, nil
}

func (b *LocalBackend) Health(context.Context) (*serve.Health, error) {
	return b.Server.HealthSnapshot(), nil
}

// HTTPBackend adapts a remote worker through the typed client.
type HTTPBackend struct {
	ReplicaName string
	Client      *serve.Client
}

func (b *HTTPBackend) Name() string { return b.ReplicaName }

func (b *HTTPBackend) Predict(ctx context.Context, req *serve.PredictRequest) (*serve.PredictResponse, error) {
	return b.Client.PredictRaw(ctx, req)
}

func (b *HTTPBackend) PredictBody(ctx context.Context, body []byte) (int, []byte, error) {
	return b.Client.PredictBody(ctx, body)
}

func (b *HTTPBackend) Health(ctx context.Context) (*serve.Health, error) {
	return b.Client.Health(ctx)
}

// Options tunes a router.  The zero value gets deterministic defaults:
// 64 virtual nodes, ring seed 2008, quotas and overload shedding off.
type Options struct {
	// VNodes is the virtual nodes per replica (default 64); more points
	// smooth the key distribution at the cost of ring size.
	VNodes int
	// Seed fixes the ring's hash placement; routers sharing a seed and
	// replica set route every tenant identically (default 2008).
	Seed int64
	// QuotaRPS is each tenant's sustained requests-per-second budget;
	// 0 disables quota enforcement.
	QuotaRPS float64
	// QuotaBurst is the bucket depth — how far above the sustained rate a
	// tenant may burst (default 1 when quotas are on).
	QuotaBurst int
	// ShedP99 sheds requests for replicas whose reported p99 predict
	// latency exceeds this many seconds (0 disables).  The signal is the
	// worker's srdaserve_request_latency_p99 gauge, read via /healthz.
	ShedP99 float64
	// ShedQueue sheds requests for replicas whose reported queue depth
	// exceeds this (0 disables).
	ShedQueue int
	// HealthInterval runs a background health sweep this often; 0 means
	// no background loop — call CheckHealth explicitly (tests do, for
	// determinism).
	HealthInterval time.Duration
	// Clock overrides time.Now for quota refill — tests advance it
	// explicitly instead of sleeping.
	Clock func() time.Time
	// Logger receives membership changes and shed warnings.  Nil disables
	// logging.
	Logger *obs.Logger
	// Tracer, when non-nil, records the router-side span tree: a "route"
	// root (or remote continuation when the request carries a traceparent
	// header) around admission, and a "forward" child around the backend
	// call.  The forward span rides the context, so the HTTP backend's
	// client stamps it onto the outgoing request and a co-located worker
	// parents its "request" span under it — one TraceID across the tier.
	Tracer *obs.Tracer
	// Flight, when non-nil, is the process flight recorder: shed requests
	// feed its shed-storm trigger.  Nil disables.
	Flight *obs.FlightRecorder
	// Exemplars, when non-nil, links the per-tenant latency sketches to
	// an exemplar store so routed-latency outliers carry their TraceID.
	Exemplars *obs.ExemplarStore
}

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = 64
	}
	if o.Seed == 0 {
		o.Seed = 2008
	}
	if o.QuotaBurst <= 0 {
		o.QuotaBurst = 1
	}
	return o
}

// healthFailures is how many consecutive failed health checks remove a
// replica from the ring.
const healthFailures = 3

// replicaState is the router's view of one backend.  All fields are
// guarded by Router.mu; the ring itself is the lock-free fast path.
type replicaState struct {
	backend  Backend
	healthy  bool
	failures int
	health   serve.Health // last successful check's snapshot
}

// Router routes predict requests across worker replicas.  Construct with
// New; it is safe for concurrent use.
type Router struct {
	opts     Options
	mu       sync.RWMutex
	replicas map[string]*replicaState
	ring     atomic.Pointer[ring]
	quotas   *quotas
	mx       *metrics
	mux      *http.ServeMux
	logger   *obs.Logger
	tracer   *obs.Tracer
	stop     chan struct{}
	stopped  atomic.Bool
	wg       sync.WaitGroup
	start    time.Time

	// tenantMu guards tenantLat, the per-tenant forward-latency sketches
	// behind the srdaroute_tenant_latency_p99 gauge family.  Only a 200
	// reply adds a tenant, so the map is bounded by the models served.
	tenantMu  sync.Mutex
	tenantLat map[string]*obs.QuantileSketch
}

// New builds a router over the given replicas, all initially healthy and
// on the ring.  When opts.HealthInterval > 0 a background sweep keeps
// membership current; otherwise call CheckHealth.
func New(backends []Backend, opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(backends) == 0 {
		return nil, fmt.Errorf("router: no backends")
	}
	r := &Router{
		opts:      opts,
		replicas:  make(map[string]*replicaState, len(backends)),
		quotas:    newQuotas(opts.QuotaRPS, opts.QuotaBurst, opts.Clock),
		mux:       http.NewServeMux(),
		logger:    opts.Logger,
		tracer:    opts.Tracer,
		stop:      make(chan struct{}),
		start:     time.Now(),
		tenantLat: make(map[string]*obs.QuantileSketch),
	}
	for _, b := range backends {
		if b.Name() == "" {
			return nil, fmt.Errorf("router: backend with empty name")
		}
		if _, dup := r.replicas[b.Name()]; dup {
			return nil, fmt.Errorf("router: duplicate replica name %q", b.Name())
		}
		r.replicas[b.Name()] = &replicaState{backend: b, healthy: true}
	}
	r.mx = newMetrics(func() int64 { return int64(len(r.Ring())) })
	r.mx.bindTenantLatency(r)
	r.mu.Lock()
	r.rebuildRingLocked()
	r.mu.Unlock()
	r.mux.HandleFunc("/v1/predict", r.handlePredict)
	r.mux.HandleFunc("/healthz", r.handleHealthz)
	r.mux.HandleFunc("/metrics", r.handleMetrics)
	if opts.HealthInterval > 0 {
		r.wg.Add(1)
		go r.healthLoop()
	}
	return r, nil
}

// Handler returns the router's HTTP handler (/v1/predict, /healthz,
// /metrics).
func (r *Router) Handler() http.Handler { return r.mux }

// Registry returns the router's metrics registry for debug exposition.
func (r *Router) Registry() *obs.Registry { return r.mx.reg }

// Close stops the background health loop, if any.
func (r *Router) Close() {
	if r.stopped.CompareAndSwap(false, true) {
		close(r.stop)
		r.wg.Wait()
	}
}

// rebuildRingLocked recomputes the ring from the healthy replicas.
// Caller holds r.mu.
func (r *Router) rebuildRingLocked() {
	var members []string
	//srdalint:ignore maprange collect-then-sort: members are sorted immediately below before the ring is built
	for name, st := range r.replicas {
		if st.healthy {
			members = append(members, name)
		}
	}
	sort.Strings(members)
	r.ring.Store(buildRing(r.opts.Seed, members, r.opts.VNodes))
}

// Ring returns the replicas currently on the ring, sorted.
func (r *Router) Ring() []string { return r.ring.Load().members() }

// RouteFor returns the replica that currently owns tenant, or "" when
// the ring is empty — placement only, no quota or overload checks.
func (r *Router) RouteFor(tenant string) string {
	return r.ring.Load().lookup(r.opts.Seed, tenant)
}

// CheckHealth sweeps every replica's health endpoint once, updating
// overload snapshots and flipping ring membership after healthFailures
// consecutive failures (one success restores).  The background loop
// calls this on HealthInterval; tests call it directly.
func (r *Router) CheckHealth(ctx context.Context) {
	r.mu.RLock()
	backends := make([]Backend, 0, len(r.replicas))
	//srdalint:ignore maprange probe order is immaterial: each result updates only its own replica's state under the lock below
	for _, st := range r.replicas {
		backends = append(backends, st.backend)
	}
	r.mu.RUnlock()
	type result struct {
		name   string
		health *serve.Health
		err    error
	}
	results := make([]result, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		//srdalint:ignore ctxflow fan-out is bounded by the configured replica set: one probe goroutine per backend, joined by the WaitGroup
		go func(i int, b Backend) {
			defer wg.Done()
			h, err := b.Health(ctx)
			results[i] = result{name: b.Name(), health: h, err: err}
		}(i, b)
	}
	wg.Wait()
	r.mu.Lock()
	changed := false
	for _, res := range results {
		st := r.replicas[res.name]
		if st == nil {
			continue
		}
		if res.err != nil {
			st.failures++
			if st.healthy && st.failures >= healthFailures {
				st.healthy = false
				changed = true
				r.logger.Warn("replica failed health checks, leaving ring",
					"replica", res.name, "failures", st.failures)
			}
			continue
		}
		st.failures = 0
		st.health = *res.health
		if !st.healthy {
			st.healthy = true
			changed = true
			r.logger.Info("replica recovered, rejoining ring", "replica", res.name)
		}
	}
	if changed {
		r.rebuildRingLocked()
	}
	r.mu.Unlock()
}

// healthLoop runs CheckHealth every HealthInterval until Close.
func (r *Router) healthLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			//srdalint:ignore ctxflow health probes own their deadline by design: a hung replica must not stall the sweep past one interval
			ctx, cancel := context.WithTimeout(context.Background(), r.opts.HealthInterval)
			r.CheckHealth(ctx)
			cancel()
		case <-r.stop:
			return
		}
	}
}

// shed rejects a request before it reaches a backend, recording the
// reason, feeding the flight recorder's shed-storm trigger, and
// returning the typed error clients see (429 for quota, 503 otherwise —
// both satisfy errors.Is(err, serve.ErrShed)).
func (r *Router) shed(reason, tenant string, trace obs.TraceID, code int, msg string) error {
	r.mx.shed.With(reason).Inc()
	r.opts.Flight.NoteShed(trace)
	r.logger.Sample("shed_"+reason, time.Second).Warn("request shed",
		"reason", reason, "tenant", tenant)
	return &serve.StatusError{
		Code:       code,
		Message:    msg,
		RetryAfter: serve.RetryAfterSeconds * time.Second,
	}
}

// now reads the injected clock when one is configured (the same clock
// quota refill uses), so tests can pin forward latencies exactly.
func (r *Router) now() time.Time {
	if r.opts.Clock != nil {
		return r.opts.Clock()
	}
	return time.Now()
}

// tenantLatencyName names the router's per-tenant latency sketches in
// the exemplar store.
const tenantLatencyName = "srdaroute_tenant_latency"

// observeForward feeds one successful routed-predict latency, with its
// trace, to the tenant's quantile sketch behind the
// srdaroute_tenant_latency_p99 gauge family; an attached exemplar store
// keeps the outliers' traces.
func (r *Router) observeForward(tenant string, sec float64, trace obs.TraceID) {
	r.tenantMu.Lock()
	sk := r.tenantLat[tenant]
	if sk == nil {
		sk = obs.NewQuantileSketch()
		sk.AttachExemplars(tenantLatencyName, r.opts.Exemplars)
		r.tenantLat[tenant] = sk
	}
	r.tenantMu.Unlock()
	sk.ObserveTraced(sec, trace)
}

// tenantP99Samples snapshots every tenant sketch's p99, sorted by tenant
// name — the exposition-time sampler behind the per-tenant latency
// gauge family.
func (r *Router) tenantP99Samples() []obs.GaugeSample {
	r.tenantMu.Lock()
	names := make([]string, 0, len(r.tenantLat))
	//srdalint:ignore maprange collect-then-sort: names are sorted below before sampling
	for name := range r.tenantLat {
		names = append(names, name)
	}
	sketches := make([]*obs.QuantileSketch, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		sketches = append(sketches, r.tenantLat[name])
	}
	r.tenantMu.Unlock()
	out := make([]obs.GaugeSample, 0, len(names))
	for i, name := range names {
		v := sketches[i].Query(0.99)
		if math.IsNaN(v) {
			continue
		}
		out = append(out, obs.GaugeSample{Labels: []string{name}, Value: v})
	}
	return out
}

// overloaded reports whether the replica's last health snapshot trips an
// admission threshold.
func (r *Router) overloaded(name string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := r.replicas[name]
	if st == nil {
		return "", false
	}
	if r.opts.ShedQueue > 0 && st.health.QueueDepth > r.opts.ShedQueue {
		return fmt.Sprintf("replica %s queue depth %d over threshold %d",
			name, st.health.QueueDepth, r.opts.ShedQueue), true
	}
	if r.opts.ShedP99 > 0 && st.health.LatencyP99Seconds > r.opts.ShedP99 {
		return fmt.Sprintf("replica %s p99 latency %.4fs over threshold %.4fs",
			name, st.health.LatencyP99Seconds, r.opts.ShedP99), true
	}
	return "", false
}

// Predict admits, routes, and forwards one request: quota check (429),
// ring lookup (503 when empty), overload check against the target
// replica's reported health (503), then the backend call.  Typed errors
// map to HTTP statuses with serve.StatusCode.
func (r *Router) Predict(ctx context.Context, req *serve.PredictRequest) (*serve.PredictResponse, error) {
	if obs.SpanFromContext(ctx) == nil && r.tracer != nil {
		var root *obs.ReqSpan
		ctx, root = r.tracer.StartRoot(ctx, "route")
		defer root.End()
	}
	b, tenant, err := r.admit(ctx, req.Model)
	if err != nil {
		return nil, err
	}
	return r.forwardTyped(ctx, b, tenant, req)
}

// admit runs quota, ring lookup and overload checks for one request and
// returns the replica to forward to and the tenant it is metered as.
func (r *Router) admit(ctx context.Context, model string) (Backend, string, error) {
	trace := obs.SpanFromContext(ctx).TraceID()
	tenant := model
	if tenant == "" {
		tenant = serve.DefaultModelName
	}
	if !r.quotas.allow(tenant) {
		return nil, tenant, r.shed("quota", tenant, trace, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q over its request quota", tenant))
	}
	name := r.ring.Load().lookup(r.opts.Seed, tenant)
	if name == "" {
		return nil, tenant, r.shed("no_backend", tenant, trace, http.StatusServiceUnavailable,
			"no healthy replica on the ring")
	}
	if msg, over := r.overloaded(name); over {
		return nil, tenant, r.shed("overload", tenant, trace, http.StatusServiceUnavailable, msg)
	}
	r.mu.RLock()
	st := r.replicas[name]
	r.mu.RUnlock()
	if st == nil {
		return nil, tenant, r.shed("no_backend", tenant, trace, http.StatusServiceUnavailable,
			"replica left the ring mid-route")
	}
	return st.backend, tenant, nil
}

// forward times one backend call under a "forward" span and counts it
// for the replica by the status call returns; a transport failure maps
// to a 5xx.  Only a 200 reply feeds the tenant's latency sketch, so a
// model name no replica serves leaves no state behind.  The span rides the context into the call: the HTTP client stamps it onto
// the outgoing request as a traceparent header, and a co-located worker
// parents its "request" span under it — either way the worker continues
// this TraceID.
func (r *Router) forward(ctx context.Context, b Backend, tenant string, call func(context.Context) int) {
	trace := obs.SpanFromContext(ctx).TraceID()
	fctx, fsp := obs.StartSpan(ctx, "forward")
	begin := r.now()
	code := call(fctx)
	sec := r.now().Sub(begin).Seconds()
	fsp.End()
	if code == http.StatusOK {
		r.observeForward(tenant, sec, trace)
	}
	r.mx.requests.With(b.Name(), strconv.Itoa(code)).Inc()
}

// forwardTyped forwards a decoded request through the backend's typed
// Predict.
func (r *Router) forwardTyped(ctx context.Context, b Backend, tenant string, req *serve.PredictRequest) (resp *serve.PredictResponse, err error) {
	r.forward(ctx, b, tenant, func(fctx context.Context) int {
		resp, err = b.Predict(fctx, req)
		return serve.StatusCode(err)
	})
	return resp, err
}

// forwardBody relays an encoded body through a byte backend and returns
// the worker's status and reply.  A 200 reply must carry one class per
// sample, as the typed client checks.
func (r *Router) forwardBody(ctx context.Context, b Backend, bb BodyBackend, tenant string, body []byte, samples int) (code int, reply []byte) {
	r.forward(ctx, b, tenant, func(fctx context.Context) int {
		var err error
		if code, reply, err = bb.PredictBody(fctx, body); err == nil && code == http.StatusOK {
			err = checkClasses(reply, samples)
		}
		if err != nil {
			code, reply = serve.ErrorBody(err)
		}
		return code
	})
	return code, reply
}

// checkClasses checks that a 200 predict reply answers each sample.
func checkClasses(reply []byte, samples int) error {
	var resp serve.PredictResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return fmt.Errorf("router: decoding predict response: %w", err)
	}
	if len(resp.Classes) != samples {
		return fmt.Errorf("router: replica returned %d classes for %d samples", len(resp.Classes), samples)
	}
	return nil
}

// handlePredict reads the capped body once and peeks at its model.  A
// body malformed at its top level gets the router's own 400; one
// malformed only inside a value is admitted and forwarded, and the
// worker's scan refuses it.  A byte backend gets the body unchanged and
// its reply is relayed as is; a typed-only backend gets the decoded
// request.
func (r *Router) handlePredict(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := serve.ReadRequestBody(w, req, serve.DefaultMaxBodyBytes)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("request body: %v", err))
		return
	}
	model, samples, err := serve.PeekPredict(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	// Continue the caller's trace when the request carries a traceparent
	// header; otherwise this router is where the trace is born.
	ctx := req.Context()
	var root *obs.ReqSpan
	if trace, parent, ok := obs.ExtractTrace(req.Header); ok {
		ctx, root = r.tracer.StartRemote(ctx, "route", trace, parent)
	} else {
		ctx, root = r.tracer.StartRoot(ctx, "route")
	}
	defer root.End()
	code, reply := r.predictBody(ctx, model, samples, body)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(serve.RetryAfterSeconds))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client hung up; there is nobody to tell.
	_, _ = w.Write(reply)
}

// predictBody admits and forwards one encoded request.
func (r *Router) predictBody(ctx context.Context, model string, samples int, body []byte) (int, []byte) {
	b, tenant, err := r.admit(ctx, model)
	if err != nil {
		return serve.ErrorBody(err)
	}
	if bb, ok := b.(BodyBackend); ok {
		return r.forwardBody(ctx, b, bb, tenant, body, samples)
	}
	var pr serve.PredictRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&pr); err != nil {
		return serve.ErrorBody(&serve.RequestError{Msg: "bad JSON: " + err.Error()})
	}
	resp, err := r.forwardTyped(ctx, b, tenant, &pr)
	if err != nil {
		return serve.ErrorBody(err)
	}
	reply, err := json.Marshal(resp)
	if err != nil {
		return serve.ErrorBody(err)
	}
	return http.StatusOK, append(reply, '\n')
}

// RouterHealth is the router's /healthz reply.
type RouterHealth struct {
	Status        string          `json:"status"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	RingMembers   []string        `json:"ring_members"`
	Replicas      []ReplicaHealth `json:"replicas"`
}

// ReplicaHealth is one replica's membership state in the router health
// reply.
type ReplicaHealth struct {
	Name     string `json:"name"`
	Healthy  bool   `json:"healthy"`
	Failures int    `json:"failures,omitempty"`
}

// HealthSnapshot builds the /healthz reply programmatically.
func (r *Router) HealthSnapshot() *RouterHealth {
	h := &RouterHealth{
		Status:        "ok",
		UptimeSeconds: time.Since(r.start).Seconds(),
		RingMembers:   r.Ring(),
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.replicas))
	//srdalint:ignore maprange collect-then-sort: names are sorted immediately below before the reply is built
	for name := range r.replicas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := r.replicas[name]
		h.Replicas = append(h.Replicas, ReplicaHealth{
			Name: name, Healthy: st.healthy, Failures: st.failures,
		})
	}
	r.mu.RUnlock()
	if len(h.RingMembers) == 0 {
		h.Status = "degraded"
	}
	return h
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, r.HealthSnapshot())
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	w.WriteHeader(http.StatusOK)
	r.mx.reg.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client hung up; there is nobody to tell.
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
