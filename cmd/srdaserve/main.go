// Command srdaserve runs the SRDA serving tier in one of three roles:
//
//	srdaserve -model out.srda -addr :8080                         # worker (default)
//	srdaserve -role=router -replicas http://w0:8080,http://w1:8080
//	srdaserve -role=all -replicas 2 -models-dir models/           # co-located tier
//
// A worker serves predictions from a registry of named, versioned models
// over JSON/HTTP with micro-batched inference, hot reload, and metrics.
// -model publishes one file as the "default" model; -models-dir publishes
// every file in a directory under its base name (the multi-tenant form);
// -registry-budget-mb bounds resident model bytes with LRU eviction.
//
// A router fronts worker replicas with a seeded consistent-hash ring
// (model name → replica), per-tenant token-bucket quotas (-quota-rps,
// -quota-burst), and admission control that sheds 503s when a replica's
// reported queue depth or p99 latency crosses -shed-queue / -shed-p99.
// Replica health is polled every -health-every.
//
// -role=all runs the whole tier in one process: -replicas N co-located
// workers sharing a single model registry, with the router's listener on
// -addr.  See doc/SHARDING.md for the topology.  The three roles are one
// assembly: a role decides only how many workers run in the process (1,
// -replicas, or none for router) and whether a router fronts them (the
// in-process workers for all, the -replicas URLs for router).  One
// teardown stops whatever was started, on shutdown and on a failed start
// alike.
//
// Endpoints: POST /v1/predict (single or multi-sample, dense or sparse
// {index: value} payloads, optional "model" tenant selector), GET
// /v1/models, GET /healthz, GET /metrics (Prometheus text).  A request
// goes to an idle inference worker at once; while every worker is busy,
// waiting requests coalesce into batches of up to -max-batch samples
// (a request is never split) and each batch is classified through one
// GEMM per model.
//
// Models hot-reload without a restart: send SIGHUP, or pass -watch to
// poll the -model file for changes.  In-flight requests finish on the
// version they started with.  SIGINT/SIGTERM drain gracefully within
// -drain-timeout.  See doc/SERVING.md for the payload schema.
//
// -online co-locates a streaming trainer with the worker (or, for
// -role=all, with worker 0 of the tier): POST /v1/observe feeds it
// labeled samples, and refits — triggered by -refit-samples,
// -refit-every, or -drift-threshold — publish new model versions into
// the live registry with no restart and no dropped requests.
// -holdout-frac diverts a validation slice; a refit that regresses on it
// beyond 5 % accuracy is rolled back automatically.  See doc/ONLINE.md.
//
// -debug-addr starts a second, operator-only listener in any role,
// exposing /debug/pprof/ (net/http/pprof), /debug/traces (the request
// tracer's ring as Chrome trace-event JSON, openable in Perfetto),
// /debug/exemplars (outlier metric observations with the trace ids that
// produced them), and /metrics: the process's export list — the
// router's srdaroute_*, worker 0's srdaserve_*, the model registry's
// srdareg_* and the trainer's srdaonline_* series, whichever the role
// runs.  Keep it bound to localhost; it is never meant to face prediction
// traffic.  On shutdown -trace-out and -metrics-out flush the trace
// ring and the same full exposition to files; per-process trace files
// from several roles merge into one timeline with `srdareport
// tracemerge`.  -flight-dir arms the always-on flight recorder to dump
// anomaly bundles (spans, logs, metric snapshots, exemplars, numeric
// fit health) on triggers such as a p99 SLO breach (-flight-p99), a
// full queue, a shed storm, or a refit rollback.  See
// doc/OBSERVABILITY.md.
//
// The router and all roles additionally run the cluster telemetry
// plane: every -telemetry-every the process scrapes each replica's
// /metrics (and CKMS latency-sketch snapshots) into a bounded in-memory
// time-series store, tags the samples with a replica label, and
// re-exposes the merged view on GET /cluster/metrics (deterministic
// Prometheus text) and GET /cluster/snapshot (the JSON fleet document
// `srdareport top` renders).  -slo-config loads a srda-slo/v1 JSON
// document of availability and latency-p99 objectives evaluated against
// that store with multi-window burn-rate alerting; alert states are
// served in /cluster/snapshot's alerts, and a
// transition to firing dumps a slo_burn flight bundle.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"srda"
	"srda/internal/obs"
	"srda/internal/registry"
	"srda/internal/router"
	"srda/internal/serve"
	"srda/internal/telemetry"
)

type config struct {
	role         string
	replicas     string
	modelPath    string
	modelsDir    string
	registryMB   int64
	addr         string
	debugAddr    string
	maxBatch     int
	workers      int
	queueDepth   int
	watch        time.Duration
	drainTimeout time.Duration
	quotaRPS     float64
	quotaBurst   int
	shedP99      time.Duration
	shedQueue    int
	vnodes       int
	ringSeed     int64
	healthEvery  time.Duration
	traceCap     int
	traceOut     string
	metricsOut   string
	flightDir    string
	flightP99    time.Duration
	logLevel     string
	logJSON      bool

	online         bool
	refitEvery     time.Duration
	refitSamples   int
	driftThreshold float64
	holdoutFrac    float64

	sloConfigPath   string
	telemetryEvery  time.Duration
	telemetryPoints int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.role, "role", "worker", "process role: worker, router, or all (co-located router + workers)")
	flag.StringVar(&cfg.replicas, "replicas", "", "router: comma-separated worker base URLs; all: number of co-located workers (default 2)")
	flag.StringVar(&cfg.modelPath, "model", "", "trained model file published as the default model (written by srdatrain)")
	flag.StringVar(&cfg.modelsDir, "models-dir", "", "directory of model files, each published under its base filename")
	flag.Int64Var(&cfg.registryMB, "registry-budget-mb", 0, "resident-model byte budget in MiB; past it LRU names are evicted (0 = unlimited)")
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "optional operator listener with /debug/pprof/, /debug/traces, /debug/exemplars, and the full /metrics (keep on localhost)")
	flag.IntVar(&cfg.maxBatch, "max-batch", 64, "max samples coalesced from concurrent requests into one inference batch while every worker is busy; a request is never split")
	flag.IntVar(&cfg.workers, "workers", 0, "inference worker goroutines (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.queueDepth, "queue", 4096, "queued-sample cap; beyond it requests get 503")
	flag.DurationVar(&cfg.watch, "watch", 0, "poll the -model file at this interval and hot-reload on change (0 = off; SIGHUP always reloads)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 5*time.Second, "grace period for in-flight requests on shutdown")
	flag.Float64Var(&cfg.quotaRPS, "quota-rps", 0, "router: per-tenant sustained requests per second; over it requests get 429 (0 = off)")
	flag.IntVar(&cfg.quotaBurst, "quota-burst", 0, "router: per-tenant burst above the sustained rate (default 1 when quotas are on)")
	flag.DurationVar(&cfg.shedP99, "shed-p99", 0, "router: shed 503 when the target replica's p99 predict latency exceeds this (0 = off)")
	flag.IntVar(&cfg.shedQueue, "shed-queue", 0, "router: shed 503 when the target replica's queue depth exceeds this (0 = off)")
	flag.IntVar(&cfg.vnodes, "vnodes", 0, "router: virtual nodes per replica on the hash ring (0 = 64)")
	flag.Int64Var(&cfg.ringSeed, "ring-seed", 0, "router: hash-ring placement seed; routers sharing it route identically (0 = 2008)")
	flag.DurationVar(&cfg.healthEvery, "health-every", 2*time.Second, "router: replica health-check interval")
	flag.IntVar(&cfg.traceCap, "trace-capacity", 0, "completed spans the request-trace ring retains (0 = default)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the trace ring as Chrome trace-event JSON here on shutdown")
	flag.StringVar(&cfg.metricsOut, "metrics-out", "", "write a final Prometheus metrics snapshot here on shutdown")
	flag.StringVar(&cfg.flightDir, "flight-dir", "", "dump flight-recorder bundles (spans, logs, metrics, exemplars, numeric health) into this directory on anomaly triggers; empty keeps the rings in memory only")
	flag.DurationVar(&cfg.flightP99, "flight-p99", 0, "p99 latency SLO for the flight recorder's p99_breach trigger (0 = off)")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	flag.BoolVar(&cfg.logJSON, "log-json", false, "emit JSON-lines logs instead of text")
	flag.BoolVar(&cfg.online, "online", false, "co-locate a streaming trainer: POST /v1/observe feeds it labeled samples and refits publish into the live registry")
	flag.DurationVar(&cfg.refitEvery, "refit-every", 0, "online: refit when this much wall time has passed since the last refit (0 = off)")
	flag.IntVar(&cfg.refitSamples, "refit-samples", 0, "online: refit every N observed samples (0 = off)")
	flag.Float64Var(&cfg.driftThreshold, "drift-threshold", 0, "online: refit when the windowed class-mean drift score exceeds this (0 = off)")
	flag.Float64Var(&cfg.holdoutFrac, "holdout-frac", 0, "online: divert this fraction of observed samples to a validation holdout; refits that regress on it roll back (0 = no validation)")
	flag.StringVar(&cfg.sloConfigPath, "slo-config", "", "router/all: srda-slo/v1 JSON config; objectives are evaluated against the federated store with multi-window burn-rate alerts in /cluster/snapshot")
	flag.DurationVar(&cfg.telemetryEvery, "telemetry-every", 10*time.Second, "router/all: federation scrape interval feeding /cluster/metrics and /cluster/snapshot")
	flag.IntVar(&cfg.telemetryPoints, "telemetry-points", 0, "router/all: points retained per federated series (0 = 2880, ~8h at the default interval)")
	flag.Parse()

	lvl, err := obs.ParseLevel(cfg.logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var logger *obs.Logger
	if cfg.logJSON {
		logger = obs.NewJSONLogger(os.Stderr, lvl)
	} else {
		logger = obs.NewLogger(os.Stderr, lvl)
	}
	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, syscall.SIGINT, syscall.SIGTERM)
	if err := run(cfg, logger, nil, nil, shutdown); err != nil {
		logger.Error("srdaserve failed", "err", err.Error())
		os.Exit(1)
	}
}

// readHeaderTimeout bounds how long an accepted connection may sit
// without delivering its request headers.  Besides slow-client hygiene,
// it keeps shutdown prompt: http.Server.Shutdown waits up to five
// seconds before closing a connection that was accepted but never
// carried a request (a client transport's lost dial race leaves exactly
// that), which would otherwise eat the whole -drain-timeout budget
// before the dispatcher drain runs.  Must stay below the default
// -drain-timeout.
const readHeaderTimeout = 2 * time.Second

// run builds the role's tier and blocks until a shutdown signal arrives,
// then drains.  Every role goes through the same assembly (tier.build)
// and the same deferred teardown, which undoes whatever was started on
// every return path, errors included.  When ready is non-nil the bound
// listener address is sent on it once the process is accepting (used by
// tests and for -addr :0); debugReady does the same for the -debug-addr
// listener.
func run(cfg config, logger *obs.Logger, ready, debugReady chan<- net.Addr, shutdown <-chan os.Signal) (err error) {
	rl, err := parseRole(cfg)
	if err != nil {
		return err
	}
	kit, logger := newObsKit(cfg, rl.name, logger)
	t := &tier{cfg: cfg, kit: kit, logger: logger}
	defer func() {
		if err = errors.Join(err, t.teardown()); err == nil {
			logger.Info("drained, bye")
		}
	}()
	handler, err := t.build(rl)
	if err != nil {
		return err
	}
	if cfg.debugAddr != "" {
		addr, _, err := t.listen(cfg.debugAddr, debugMux(kit, t.exports))
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		logger.Info("debug listener up", "addr", addr.String(),
			"endpoints", "/debug/pprof/ /debug/traces /debug/exemplars /metrics")
		if debugReady != nil {
			debugReady <- addr
		}
	}
	addr, failed, err := t.listen(cfg.addr, handler)
	if err != nil {
		return err
	}
	logger.Info("serving", "role", rl.name, "addr", addr.String())
	if ready != nil {
		ready <- addr
	}
	select {
	case sig := <-shutdown:
		logger.Info("draining", "signal", sig.String(), "timeout", cfg.drainTimeout.String())
		return nil
	case err := <-failed:
		return fmt.Errorf("listener failed: %w", err)
	}
}

// role is what -role and -replicas decide, and all they decide: how
// many workers run in this process (1 for worker, -replicas for all, 0
// for router) and whether a router fronts them — the in-process workers
// for all, the -replicas URLs over HTTP for router.
type role struct {
	name     string
	workers  int
	routed   bool
	replicas []string
}

func parseRole(cfg config) (role, error) {
	switch cfg.role {
	case "", "worker":
		return role{name: "worker", workers: 1}, nil
	case "router":
		var urls []string
		for _, u := range strings.Split(cfg.replicas, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			return role{}, fmt.Errorf("-role=router needs -replicas with at least one worker URL")
		}
		return role{name: "router", routed: true, replicas: urls}, nil
	case "all":
		n := 2
		if cfg.replicas != "" {
			var err error
			if n, err = strconv.Atoi(cfg.replicas); err != nil || n < 1 {
				return role{}, fmt.Errorf("-role=all needs -replicas as a worker count, got %q", cfg.replicas)
			}
		}
		return role{name: "all", workers: n, routed: true}, nil
	}
	return role{}, fmt.Errorf("unknown -role %q (worker, router, or all)", cfg.role)
}

// tier is one process's pieces, whatever its role.  Each piece records
// how to stop it the moment it starts, so one teardown serves every role
// and every return path.
type tier struct {
	cfg    config
	kit    *obsKit
	logger *obs.Logger
	// exports are the registries the process exposes, in exposition
	// order: router, serve (worker 0), registry, online — whichever the
	// role runs.  The routed /metrics, the debug /metrics, -metrics-out
	// and the flight recorder all read this one list.
	exports []*obs.Registry
	stops   []func(context.Context) error // in start order
}

// onStop records how to undo the piece just started.
func (t *tier) onStop(stop func(context.Context) error) { t.stops = append(t.stops, stop) }

// stopFunc adapts a stop function that neither needs the drain budget
// nor fails.
func stopFunc(stop func()) func(context.Context) error {
	return func(context.Context) error { stop(); return nil }
}

// build assembles the role's pieces in order — registry, trainer and
// workers, then router and telemetry plane — fixes the export list, and
// returns the handler for -addr.
func (t *tier) build(rl role) (http.Handler, error) {
	cfg, kit, logger := t.cfg, t.kit, t.logger
	var (
		workers []*serve.Server
		reg     *registry.Registry
		trainer serve.Trainer
		err     error
	)
	if rl.workers > 0 {
		if reg, err = buildRegistry(cfg, logger); err != nil {
			return nil, err
		}
		if trainer, err = buildTrainer(cfg, reg, kit, logger); err != nil {
			return nil, err
		}
		for i := 0; i < rl.workers; i++ {
			// Every worker shares the kit's tracer, so a request's route →
			// forward → request → batch → kernel spans land in one ring and
			// export as one timeline regardless of which replica served it.
			opts := serve.Options{
				MaxBatch:   cfg.maxBatch,
				Workers:    cfg.workers,
				QueueDepth: cfg.queueDepth,
				Registry:   reg,
				Tracer:     kit.tracer,
				Logger:     logger,
				Flight:     kit.flight,
				Exemplars:  kit.exemplars,
			}
			if i == 0 {
				// One trainer for the whole process: it publishes into the
				// shared registry, so every worker serves its refits; worker 0
				// hosts the /v1/observe ingestion endpoint.
				opts.Trainer = trainer
			}
			s, err := serve.New(nil, opts)
			if err != nil {
				return nil, err
			}
			t.onStop(s.Close)
			workers = append(workers, s)
		}
		// Reloads land in the shared registry, so wiring them through any
		// one worker updates every worker at once.
		t.onStop(stopFunc(watchAndReload(cfg, workers[0], logger)))
	}

	var r *router.Router
	var backends []router.Backend
	var targets []telemetry.Target
	if rl.routed {
		for i, s := range workers {
			name := fmt.Sprintf("worker-%d", i)
			backends = append(backends, &router.LocalBackend{ReplicaName: name, Server: s})
			targets = append(targets, telemetry.RegistryTarget(name, s.LatencySketches, s.Registry()))
		}
		for _, u := range rl.replicas {
			client := serve.NewClient(u)
			backends = append(backends, &router.HTTPBackend{ReplicaName: u, Client: client})
			targets = append(targets, telemetry.ClientTarget(u, client, client))
		}
		r, err = router.New(backends, router.Options{
			VNodes:         cfg.vnodes,
			Seed:           cfg.ringSeed,
			QuotaRPS:       cfg.quotaRPS,
			QuotaBurst:     cfg.quotaBurst,
			ShedP99:        cfg.shedP99.Seconds(),
			ShedQueue:      cfg.shedQueue,
			HealthInterval: cfg.healthEvery,
			Logger:         logger,
			Tracer:         kit.tracer,
			Flight:         kit.flight,
			Exemplars:      kit.exemplars,
		})
		if err != nil {
			return nil, err
		}
		t.onStop(stopFunc(r.Close))
		t.export("router", r.Registry())
	}
	if len(workers) > 0 {
		t.export("serve", workers[0].Registry())
		t.export("registry", reg.Metrics())
		if trainer != nil {
			t.export("online", trainer.Metrics())
		}
	}
	if r == nil {
		return workers[0].Handler(), nil
	}

	// The router federates itself too, so srdaroute_* series (request
	// codes per replica, sheds, quota denials) land in the cluster store
	// where availability SLOs can read them.
	targets = append(targets, telemetry.RegistryTarget("router", nil, r.Registry()))
	fed, stopTelemetry, err := telemetryPlane(cfg, targets, kit, logger)
	if err != nil {
		return nil, err
	}
	t.onStop(stopFunc(stopTelemetry))
	r.CheckHealth(context.Background()) // seed overload snapshots before traffic
	logger.Info("router up", "role", rl.name, "workers", len(workers),
		"replicas", len(backends), "ring", strings.Join(r.Ring(), ","))
	mux := http.NewServeMux()
	mux.Handle("/", r.Handler())
	mux.HandleFunc("/metrics", exposition(t.exports...))
	mux.HandleFunc("/cluster/metrics", fed.MetricsHandler())
	mux.HandleFunc("/cluster/snapshot", fed.SnapshotHandler())
	if len(workers) > 0 {
		// The registry listing and training samples go to worker 0, which
		// shares the registry and hosts the trainer (without -online it
		// answers /v1/observe with 404, as the router would).
		mux.Handle("/v1/models", workers[0].Handler())
		mux.Handle("/v1/observe", workers[0].Handler())
	}
	return mux, nil
}

// export appends reg to the export list and attaches it to the flight
// recorder under name.
func (t *tier) export(name string, reg *obs.Registry) {
	t.exports = append(t.exports, reg)
	t.kit.flight.AttachRegistry(name, reg)
}

// listen binds addr and serves h there until teardown, which shuts the
// listener down within the drain budget and waits for Serve to return.
// The returned channel carries Serve's error should it fail before then.
func (t *tier) listen(addr string, h http.Handler) (net.Addr, <-chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	failed := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			t.logger.Error("listener failed", "addr", ln.Addr().String(), "err", err.Error())
			failed <- err
		}
	}()
	t.onStop(func(ctx context.Context) error {
		if err := hs.Shutdown(ctx); err != nil {
			t.logger.Warn("listener shutdown incomplete", "addr", ln.Addr().String(), "err", err.Error())
		}
		<-done
		return nil
	})
	return ln.Addr(), failed, nil
}

// teardown stops whatever build and listen started, newest first — the
// listeners, the telemetry plane, the router, reload, the workers — on
// one -drain-timeout budget, then flushes -trace-out and -metrics-out.
// A drain that times out still flushes: a truncated trace of a wedged
// server is exactly what the operator needs, and the drain error still
// decides the exit status.
func (t *tier) teardown() error {
	ctx, cancel := context.WithTimeout(context.Background(), t.cfg.drainTimeout)
	defer cancel()
	var errs []error
	for i := len(t.stops) - 1; i >= 0; i-- {
		errs = append(errs, t.stops[i](ctx))
	}
	flushArtifacts(t.cfg, t.kit.tracer, t.logger, t.exports)
	return errors.Join(errs...)
}

// buildRegistry assembles the model store from -models-dir,
// -registry-budget-mb, and -model.  At least one model source is
// required: a worker with nothing to serve is a misconfiguration.
func buildRegistry(cfg config, logger *obs.Logger) (*registry.Registry, error) {
	if cfg.modelPath == "" && cfg.modelsDir == "" {
		return nil, fmt.Errorf("need -model or -models-dir; see -h")
	}
	reg := registry.New(registry.Options{
		MaxBytes: cfg.registryMB << 20,
		Workers:  cfg.workers,
		Logger:   logger,
	})
	if cfg.modelsDir != "" {
		names, err := reg.LoadDir(cfg.modelsDir)
		if err != nil {
			return nil, err
		}
		logger.Info("model directory loaded", "dir", cfg.modelsDir, "models", len(names))
	}
	if cfg.modelPath != "" {
		model, err := srda.LoadModelFile(cfg.modelPath)
		if err != nil {
			return nil, fmt.Errorf("loading model: %w", err)
		}
		if _, err := reg.Publish(serve.DefaultModelName, model); err != nil {
			return nil, err
		}
		logger.Info("model loaded", "path", cfg.modelPath,
			"features", model.W.Rows, "classes", model.NumClasses, "dims", model.Dim())
	}
	return reg, nil
}

// obsKit is the per-process observability plumbing every role shares:
// one request tracer (so a co-located tier exports one span ring), one
// exemplar store linking outlier metric observations to trace ids, and
// an always-on flight recorder whose rings capture the moments before
// an anomaly.  Bundles only hit disk when -flight-dir is set.
type obsKit struct {
	tracer    *obs.Tracer
	flight    *obs.FlightRecorder
	exemplars *obs.ExemplarStore
}

// newObsKit assembles the kit for one process, named after its role.
// The returned logger tees every record (including ones below the
// sink's level) into the flight ring, so bundles carry debug context a
// quiet production sink dropped.
func newObsKit(cfg config, process string, logger *obs.Logger) (*obsKit, *obs.Logger) {
	if cfg.flightDir != "" {
		if err := os.MkdirAll(cfg.flightDir, 0o755); err != nil {
			logger.Error("creating -flight-dir", "dir", cfg.flightDir, "err", err)
		}
	}
	kit := &obsKit{
		tracer: obs.NewTracer(cfg.traceCap),
		flight: obs.NewFlightRecorder(obs.FlightOptions{
			Dir:     cfg.flightDir,
			Process: process,
			P99SLO:  cfg.flightP99.Seconds(),
			Logger:  logger,
		}),
		exemplars: obs.NewExemplarStore(cfg.flightP99.Seconds()),
	}
	kit.tracer.SetProcess(process)
	kit.flight.AttachTracer(kit.tracer)
	kit.flight.AttachExemplars(kit.exemplars)
	return kit, kit.flight.CaptureLogs(logger)
}

// buildTrainer assembles the -online streaming trainer against the live
// registry, shaped after the published default model (feature count,
// classes, and ridge penalty carry over, so observed samples must match
// what the served model was trained on).
func buildTrainer(cfg config, reg *registry.Registry, kit *obsKit, logger *obs.Logger) (serve.Trainer, error) {
	if !cfg.online {
		return nil, nil
	}
	snap, ok := reg.Get(serve.DefaultModelName)
	if !ok {
		return nil, fmt.Errorf("-online needs a published default model (-model) to shape the trainer")
	}
	m := snap.Model
	alpha := m.Alpha
	if alpha <= 0 {
		alpha = 1 // LSQR-trained models may record 0; streaming refits need a ridge
	}
	tr, err := srda.NewStreamTrainer(srda.StreamConfig{
		NumFeatures: m.W.Rows,
		NumClasses:  m.NumClasses,
		Alpha:       alpha,
		Workers:     cfg.workers,
		Policy: srda.RefitPolicy{
			MinSamples:     cfg.refitSamples,
			Interval:       cfg.refitEvery,
			DriftThreshold: cfg.driftThreshold,
			HoldoutFrac:    cfg.holdoutFrac,
		},
		Registry: reg,
		Clock:    srda.SystemClock(),
		Logger:   logger,
		Flight:   kit.flight,
	})
	if err != nil {
		return nil, fmt.Errorf("building streaming trainer: %w", err)
	}
	logger.Info("streaming trainer up", "features", m.W.Rows, "classes", m.NumClasses,
		"alpha", alpha, "refit_samples", cfg.refitSamples, "refit_every", cfg.refitEvery.String(),
		"drift_threshold", cfg.driftThreshold, "holdout_frac", cfg.holdoutFrac)
	return tr, nil
}

// watchAndReload wires SIGHUP (always) and -watch (optional) reloads of
// the -model file into s, returning a stop function.
func watchAndReload(cfg config, s *serve.Server, logger *obs.Logger) func() {
	if cfg.modelPath == "" {
		return func() {}
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	hupDone := make(chan struct{})
	go func() {
		defer close(hupDone)
		for range hup {
			if seq, err := s.ReloadFromFile(cfg.modelPath); err != nil {
				logger.Warn("SIGHUP reload failed, keeping current model", "err", err.Error())
			} else {
				logger.Info("SIGHUP reload done", "path", cfg.modelPath, "model_seq", seq)
			}
		}
	}()
	stopWatch := func() {}
	if cfg.watch > 0 {
		stopWatch = s.WatchFile(cfg.modelPath, cfg.watch)
	}
	return func() {
		stopWatch()
		signal.Stop(hup)
		close(hup)
		<-hupDone
	}
}

// telemetryPlane assembles the router-side cluster telemetry: a
// federator scraping every replica (plus the router's own registry)
// into the time-series store, an optional SLO burn-rate engine from
// -slo-config, and the poll loop.  This command owns the ticker —
// internal/telemetry is under the noclock contract and only ever sees
// explicit times, so StartPoller takes the ticker's channel and a stop
// channel from here.  The returned stop function halts the loop and
// waits for the poller to exit.
func telemetryPlane(cfg config, targets []telemetry.Target, kit *obsKit, logger *obs.Logger) (*telemetry.Federator, func(), error) {
	fed := telemetry.NewFederator(targets, telemetry.FederatorOptions{
		PointsPerSeries: cfg.telemetryPoints,
		Logger:          logger,
	})
	if cfg.sloConfigPath != "" {
		data, err := os.ReadFile(cfg.sloConfigPath)
		if err != nil {
			return nil, nil, fmt.Errorf("reading -slo-config: %w", err)
		}
		sloCfg, err := telemetry.ValidateSLOConfig(data)
		if err != nil {
			return nil, nil, err
		}
		engine := telemetry.NewSLOEngine(sloCfg, fed.Store(), telemetry.SLOEngineOptions{
			Flight: kit.flight,
			Logger: logger,
		})
		fed.AttachSLO(engine)
		logger.Info("SLO engine up", "objectives", len(sloCfg.Objectives), "windows", len(sloCfg.Windows))
	}
	every := cfg.telemetryEvery
	if every <= 0 {
		every = 10 * time.Second
	}
	// Seed the store before the listener opens so /cluster/* answers
	// from the first request instead of waiting out one interval.
	fed.Scrape(context.Background(), time.Now())
	ticker := time.NewTicker(every)
	stop := make(chan struct{})
	done := telemetry.StartPoller(ticker.C, stop, func(now time.Time) {
		fed.Scrape(context.Background(), now)
	})
	logger.Info("telemetry plane up", "targets", len(targets), "every", every.String(), "slo", cfg.sloConfigPath != "")
	return fed, func() {
		ticker.Stop()
		close(stop)
		<-done
	}, nil
}

// flushArtifacts writes the trace ring (-trace-out) and a final metrics
// snapshot (-metrics-out, the export list as the debug /metrics serves
// it) at shutdown.
func flushArtifacts(cfg config, tracer *obs.Tracer, logger *obs.Logger, exports []*obs.Registry) {
	if cfg.traceOut != "" {
		var buf bytes.Buffer
		if err := tracer.WriteChromeTrace(&buf); err != nil {
			logger.Error("trace export failed", "err", err.Error())
		} else if err := os.WriteFile(cfg.traceOut, buf.Bytes(), 0o644); err != nil {
			logger.Error("trace flush failed", "path", cfg.traceOut, "err", err.Error())
		} else {
			logger.Info("trace flushed", "path", cfg.traceOut,
				"spans", tracer.SpanCount(), "evicted", tracer.Evicted())
		}
	}
	if cfg.metricsOut != "" {
		var buf bytes.Buffer
		for _, reg := range exports {
			reg.WritePrometheus(&buf)
		}
		if err := os.WriteFile(cfg.metricsOut, buf.Bytes(), 0o644); err != nil {
			logger.Error("metrics flush failed", "path", cfg.metricsOut, "err", err.Error())
		} else {
			logger.Info("metrics flushed", "path", cfg.metricsOut)
		}
	}
}

// exposition serves regs as one Prometheus text exposition, in order.
func exposition(regs ...*obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", obs.PromContentType)
		for _, reg := range regs {
			reg.WritePrometheus(w)
		}
	}
}

// debugMux assembles the operator-only endpoint set: Go's pprof handlers
// (registered explicitly on a private mux, so nothing leaks onto
// http.DefaultServeMux or the prediction listener), the kit's trace ring
// and exemplars, and the export list's Prometheus exposition.
func debugMux(kit *obsKit, exports []*obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/exemplars", kit.exemplars.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", exposition(exports...))
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// The ring snapshot is taken inside; a failed write means the
		// client hung up.
		_ = kit.tracer.WriteChromeTrace(w)
	})
	return mux
}
