package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"srda"
	"srda/internal/obs"
	"srda/internal/serve"
	"srda/internal/telemetry"
)

// trainAndSave trains a small sparse model end to end through the public
// API and persists it the way srdatrain does.
func trainAndSave(t *testing.T, path string, seed int64) (*srda.Model, *srda.Dataset) {
	t.Helper()
	ds := srda.NewsLike(srda.NewsConfig{Classes: 3, Docs: 150, Vocab: 400, AvgLen: 25, TopicBoost: 10, Seed: seed})
	model, err := srda.FitCSR(ds.Sparse, ds.Labels, ds.NumClasses, srda.Options{Alpha: 1, LSQRIter: 20, Whiten: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := srda.SaveModelFile(model, path); err != nil {
		t.Fatal(err)
	}
	return model, ds
}

// startServer runs the binary's run() on a random port and returns the
// base URL, the debug-listener base URL ("" unless cfg.debugAddr is set),
// plus a stop function that triggers and awaits graceful drain.
func startServer(t *testing.T, cfg config) (string, string, func()) {
	t.Helper()
	cfg.addr = "127.0.0.1:0"
	if cfg.drainTimeout == 0 {
		cfg.drainTimeout = 5 * time.Second
	}
	ready := make(chan net.Addr, 1)
	debugReady := make(chan net.Addr, 1)
	shutdown := make(chan os.Signal, 1)
	errCh := make(chan error, 1)
	go func() {
		// A nil *obs.Logger is a no-op, which keeps test output quiet.
		errCh <- run(cfg, nil, ready, debugReady, shutdown)
	}()
	var debugBase string
	if cfg.debugAddr != "" {
		select {
		case addr := <-debugReady:
			debugBase = "http://" + addr.String()
		case err := <-errCh:
			t.Fatalf("server exited before debug listener ready: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("debug listener never became ready")
		}
	}
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-errCh:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	return "http://" + addr.String(), debugBase, func() {
		shutdown <- syscall.SIGTERM
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("server exited with error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server never drained")
		}
	}
}

// sparseSampleOf converts one CSR row into the request payload form.
func sparseSampleOf(ds *srda.Dataset, i int) serve.Sample {
	cols, vals := ds.Sparse.Row(i)
	m := make(map[int]float64, len(cols))
	for t, j := range cols {
		m[j] = vals[t]
	}
	return serve.SparseSample(m)
}

// TestServeEndToEnd is the train → save → serve → predict acceptance
// path: a model trained and saved through the public API is served by the
// binary's run loop and answers with the same classes the in-process
// model produces.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.bin")
	model, ds := trainAndSave(t, modelPath, 31)

	base, _, stop := startServer(t, config{
		modelPath: modelPath,
		maxBatch:  8,
	})
	defer stop()
	client := serve.NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Features != ds.NumFeatures() || h.Classes != ds.NumClasses || h.ModelSeq != 1 {
		t.Fatalf("unexpected health: %+v", h)
	}

	want := model.PredictBatchCSR(ds.Sparse)
	samples := make([]serve.Sample, 0, 20)
	for i := 0; i < 20; i++ {
		samples = append(samples, sparseSampleOf(ds, i))
	}
	got, err := client.Predict(ctx, samples...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d: served class %d, model says %d", i, got[i], want[i])
		}
	}

	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(text) == 0 {
		t.Fatal("empty metrics exposition")
	}
}

// TestServeWatchReload overwrites the model file under a running server
// started with -watch and verifies the swap is picked up.
func TestServeWatchReload(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.bin")
	_, ds := trainAndSave(t, modelPath, 32)

	base, _, stop := startServer(t, config{
		modelPath: modelPath,
		watch:     5 * time.Millisecond,
	})
	defer stop()
	client := serve.NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	time.Sleep(20 * time.Millisecond) // fresh mtime even on coarse filesystems
	model2, _ := trainAndSave(t, modelPath, 33)
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := client.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.ModelSeq >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher never picked up the rewritten model")
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := model2.PredictBatchCSR(ds.Sparse)
	got, err := client.Predict(ctx, sparseSampleOf(ds, 0), sparseSampleOf(ds, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("served %v from the watched-in model, want %v", got, want[:2])
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(config{}, nil, nil, nil, nil); err == nil {
		t.Fatal("missing -model accepted")
	}
	if err := run(config{modelPath: filepath.Join(t.TempDir(), "nope.bin")}, nil, nil, nil, nil); err == nil {
		t.Fatal("missing model file accepted")
	}
}

// TestTeardownOnError: a start that fails after the -debug-addr listener
// is up (here because -addr is already bound) must, in every role,
// return an error and leave nothing it started behind — the debug port
// above all, which must be free to bind again once run returns.
func TestTeardownOnError(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.bin")
	trainAndSave(t, modelPath, 38)
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = busy.Close() }() // test listener; nothing to flush
	// A replica URL whose port refuses connections: the router's health
	// check and first scrape fail fast instead of waiting on a peer.
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replica := "http://" + gone.Addr().String()
	if err := gone.Close(); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []config{
		{role: "worker", modelPath: modelPath},
		{role: "router", replicas: replica},
		{role: "all", replicas: "2", modelPath: modelPath},
	} {
		t.Run(cfg.role, func(t *testing.T) {
			cfg.addr = busy.Addr().String()
			cfg.debugAddr = "127.0.0.1:0"
			cfg.drainTimeout = 5 * time.Second
			debugReady := make(chan net.Addr, 1)
			if err := run(cfg, nil, nil, debugReady, nil); err == nil {
				t.Fatal("run with -addr already bound returned nil")
			}
			var debugAddr net.Addr
			select {
			case debugAddr = <-debugReady:
			default:
				t.Fatal("the debug listener never started")
			}
			ln, err := net.Listen("tcp", debugAddr.String())
			if err != nil {
				t.Fatalf("debug address still bound after run returned: %v", err)
			}
			if err := ln.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServeDebugListener checks the -debug-addr acceptance criterion: the
// operator listener must answer /debug/pprof/ and a combined /metrics
// carrying the server's and the model registry's instruments — while the
// prediction listener stays free of debug endpoints.  It serves no
// /debug/vars: nothing publishes an expvar.
func TestServeDebugListener(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.bin")
	_, ds := trainAndSave(t, modelPath, 34)

	base, debugBase, stop := startServer(t, config{
		modelPath: modelPath,
		debugAddr: "127.0.0.1:0",
	})
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	// One prediction so serve counters are non-zero.
	client := serve.NewClient(base)
	if _, err := client.Predict(ctx, sparseSampleOf(ds, 0)); err != nil {
		t.Fatal(err)
	}

	get := func(url string) (int, string) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }() // test helper; status is the signal
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get(debugBase + "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d, body %.80q", code, body)
	}
	if code, _ := get(debugBase + "/debug/vars"); code != http.StatusNotFound {
		t.Fatalf("/debug/vars = %d, want 404", code)
	}
	code, body := get(debugBase + "/metrics")
	if code != http.StatusOK {
		t.Fatalf("debug /metrics = %d", code)
	}
	for _, want := range []string{"srdaserve_requests_total", "srdaserve_queue_depth", "srdareg_bytes"} {
		if !strings.Contains(body, want) {
			t.Errorf("debug /metrics missing %q", want)
		}
	}
	// The prediction listener must not grow debug surface area.
	if code, _ := get(base + "/debug/pprof/"); code == http.StatusOK {
		t.Fatal("prediction listener serves /debug/pprof/")
	}
}

// httpGet fetches a URL and returns status, Content-Type, and body.
func httpGet(t *testing.T, ctx context.Context, url string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }() // test helper; status is the signal
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// writeSLO writes an SLO config document and returns its path.
func writeSLO(t *testing.T, dir, doc string) string {
	t.Helper()
	path := filepath.Join(dir, "slo.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAllRoleClusterTelemetry is the co-located tier's telemetry
// acceptance path: -role=all with -slo-config must serve the federated
// cluster exposition, the JSON fleet snapshot, and the alert table on
// the router listener, with the replica-tagged worker series and the
// merged CKMS cluster quantiles present after traffic — and every JSON
// debug surface must say application/json while Prometheus surfaces say
// the 0.0.4 text type.
func TestAllRoleClusterTelemetry(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.bin")
	_, ds := trainAndSave(t, modelPath, 35)
	sloPath := writeSLO(t, dir, `{
  "schema": "srda-slo/v1",
  "objectives": [
    {"name": "predict-availability", "kind": "availability",
     "metric": "srdaroute_requests_total", "target": 0.99}
  ]
}`)

	base, debugBase, stop := startServer(t, config{
		role:           "all",
		replicas:       "2",
		modelPath:      modelPath,
		debugAddr:      "127.0.0.1:0",
		sloConfigPath:  sloPath,
		telemetryEvery: 25 * time.Millisecond,
	})
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	client := serve.NewClient(base)
	for i := 0; i < 8; i++ {
		if _, err := client.Predict(ctx, sparseSampleOf(ds, i)); err != nil {
			t.Fatal(err)
		}
	}

	// Poll until a scrape after the predicts has landed: the router's
	// routed-request counters (workers are called in-process in the all
	// role, so request counts live in srdaroute_*) and the merged
	// latency sketch both show up.
	deadline := time.Now().Add(10 * time.Second)
	var metricsBody string
	for {
		_, ctype, body := httpGet(t, ctx, base+"/cluster/metrics")
		_, _, snapBody := httpGet(t, ctx, base+"/cluster/snapshot")
		snap, err := telemetry.ValidateClusterSnapshot([]byte(snapBody))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(body, "srdaroute_requests_total") && len(snap.Quantiles) == 1 && snap.Quantiles[0].Count >= 8 {
			if ctype != obs.PromContentType {
				t.Fatalf("/cluster/metrics Content-Type = %q, want %q", ctype, obs.PromContentType)
			}
			metricsBody = body
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker series never federated; last body:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range []string{
		`srdaserve_queue_depth{replica="worker-0"}`,
		`srdaserve_queue_depth{replica="worker-1"}`,
		// The router's own replica label survives federation renamed, so
		// the tag never collides into a duplicate label name.
		`srdaroute_requests_total{code="200",exported_replica="worker-`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/cluster/metrics missing %q", want)
		}
	}

	code, ctype, body := httpGet(t, ctx, base+"/cluster/snapshot")
	if code != http.StatusOK || ctype != "application/json" {
		t.Fatalf("/cluster/snapshot = %d %q", code, ctype)
	}
	snap, err := telemetry.ValidateClusterSnapshot([]byte(body))
	if err != nil {
		t.Fatalf("snapshot does not validate: %v\n%s", err, body)
	}
	// Two workers plus the router's own registry.
	if len(snap.Replicas) != 3 {
		t.Fatalf("snapshot replicas = %+v", snap.Replicas)
	}
	// The workers' merged latency sketch counts every predict.
	if len(snap.Quantiles) != 1 || snap.Quantiles[0].Metric != serve.LatencySketchName || snap.Quantiles[0].Count < 8 {
		t.Errorf("snapshot quantiles = %+v, want the merged %s sketch over 8+ predicts", snap.Quantiles, serve.LatencySketchName)
	}
	for _, r := range snap.Replicas {
		if !r.Up {
			t.Errorf("replica %s down in a healthy tier: %+v", r.Replica, r)
		}
	}
	// One availability objective across the default two windows, sorted
	// by window; /cluster/snapshot is the one place the alert table is
	// served.
	if len(snap.Alerts) != 2 {
		t.Fatalf("snapshot alerts = %+v", snap.Alerts)
	}
	for i, window := range []string{"fast", "slow"} {
		if a := snap.Alerts[i]; a.Objective != "predict-availability" || a.Window != window || a.State != telemetry.StateInactive {
			t.Errorf("snapshot alert %d = %+v, want predict-availability/%s inactive", i, a, window)
		}
	}
	if code, _, _ := httpGet(t, ctx, base+"/debug/alerts"); code != http.StatusNotFound {
		t.Errorf("/debug/alerts = %d, want 404", code)
	}

	// Content-Type contract on the rest of the surface: JSON debug
	// endpoints are application/json, Prometheus expositions are the
	// versioned text type.
	if _, ctype, _ := httpGet(t, ctx, debugBase+"/debug/traces"); ctype != "application/json" {
		t.Errorf("/debug/traces Content-Type = %q", ctype)
	}
	if _, ctype, _ := httpGet(t, ctx, debugBase+"/debug/exemplars"); ctype != "application/json" {
		t.Errorf("/debug/exemplars Content-Type = %q", ctype)
	}
	if _, ctype, _ := httpGet(t, ctx, base+"/metrics"); ctype != obs.PromContentType {
		t.Errorf("tier /metrics Content-Type = %q", ctype)
	}
	if _, ctype, _ := httpGet(t, ctx, debugBase+"/metrics"); ctype != obs.PromContentType {
		t.Errorf("debug /metrics Content-Type = %q", ctype)
	}
}

// TestRouterFederationEndToEnd runs a real worker process and a real
// router process and checks the router's federation plane scrapes the
// worker over HTTP: replica-tagged srdaserve_* series reach
// /cluster/metrics, the worker's CKMS sketch (fetched from /v1/sketches)
// reaches the snapshot's merged quantiles, and the snapshot's replica
// table marks the worker up.
func TestRouterFederationEndToEnd(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.bin")
	_, ds := trainAndSave(t, modelPath, 36)

	workerBase, _, stopWorker := startServer(t, config{modelPath: modelPath})
	defer stopWorker()
	routerBase, debugBase, stopRouter := startServer(t, config{
		role:           "router",
		replicas:       workerBase,
		debugAddr:      "127.0.0.1:0",
		telemetryEvery: 25 * time.Millisecond,
	})
	defer stopRouter()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	client := serve.NewClient(routerBase)
	for i := 0; i < 5; i++ {
		if _, err := client.Predict(ctx, sparseSampleOf(ds, i)); err != nil {
			t.Fatal(err)
		}
	}

	// A scrape pass ingests a target's exposition before it fetches the
	// target's sketches, so wait for both.
	deadline := time.Now().Add(10 * time.Second)
	var snap *telemetry.ClusterSnapshot
	for {
		_, _, body := httpGet(t, ctx, routerBase+"/cluster/metrics")
		_, _, snapBody := httpGet(t, ctx, routerBase+"/cluster/snapshot")
		var err error
		if snap, err = telemetry.ValidateClusterSnapshot([]byte(snapBody)); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(body, `srdaserve_requests_total{code="200",endpoint="/v1/predict",replica="`+workerBase+`"}`) &&
			len(snap.Quantiles) == 1 && snap.Quantiles[0].Count >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker series or sketch never federated over HTTP; last bodies:\n%s\n%s", body, snapBody)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.Quantiles[0].Metric != serve.LatencySketchName {
		t.Errorf("snapshot quantiles = %+v, want the worker's %s sketch", snap.Quantiles, serve.LatencySketchName)
	}
	var worker *telemetry.ReplicaStatus
	for i := range snap.Replicas {
		if snap.Replicas[i].Replica == workerBase {
			worker = &snap.Replicas[i]
		}
	}
	if worker == nil || !worker.Up {
		t.Fatalf("worker replica missing or down in snapshot: %+v", snap.Replicas)
	}

	// -debug-addr works in the router role too: pprof, the router's trace
	// ring, and a /metrics carrying the router's own series.
	for path, want := range map[string]string{
		"/debug/pprof/": "goroutine",
		"/debug/traces": "traceEvents",
		"/metrics":      "srdaroute_requests_total",
	} {
		if code, _, body := httpGet(t, ctx, debugBase+path); code != http.StatusOK || !strings.Contains(body, want) {
			t.Errorf("router debug %s = %d, missing %q", path, code, want)
		}
	}
}

// waitAlertState polls /cluster/snapshot until an alert reaches the
// wanted state.
func waitAlertState(t *testing.T, ctx context.Context, base, state string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		_, _, body := httpGet(t, ctx, base+"/cluster/snapshot")
		snap, err := telemetry.ValidateClusterSnapshot([]byte(body))
		if err != nil {
			t.Fatalf("snapshot does not validate: %v\n%s", err, body)
		}
		for _, a := range snap.Alerts {
			if a.State == state {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("alert never reached %q; last alerts: %+v", state, snap.Alerts)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSLOSmoke is the `make slo-smoke` end-to-end: a real router in
// front of a real worker, an induced 5xx burst (the worker process is
// stopped while the router keeps forwarding), and the availability
// alert driven through pending → firing → resolved with a validated
// slo_burn flight bundle on disk.  Wall-clock windows make it a
// multi-second test, so it only runs when SRDA_SLO_SMOKE is set.
func TestSLOSmoke(t *testing.T) {
	if os.Getenv("SRDA_SLO_SMOKE") == "" {
		t.Skip("set SRDA_SLO_SMOKE=1 to run the SLO smoke (see `make slo-smoke`)")
	}
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.bin")
	_, ds := trainAndSave(t, modelPath, 37)
	flightDir := filepath.Join(dir, "flight")
	if err := os.MkdirAll(flightDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Tight windows so the whole lifecycle fits in seconds: both windows
	// see the burst immediately, pending holds 300ms, and the alert
	// resolves once the burst slides out of the 6s long window.
	sloPath := writeSLO(t, dir, `{
  "schema": "srda-slo/v1",
  "objectives": [
    {"name": "availability", "kind": "availability",
     "metric": "srdaroute_requests_total", "target": 0.9,
     "pending_for_seconds": 0.3}
  ],
  "windows": [{"name": "fast", "short_seconds": 2, "long_seconds": 6, "burn": 1.5}]
}`)

	workerBase, _, stopWorker := startServer(t, config{modelPath: modelPath})
	routerBase, _, stopRouter := startServer(t, config{
		role:           "router",
		replicas:       workerBase,
		sloConfigPath:  sloPath,
		telemetryEvery: 100 * time.Millisecond,
		flightDir:      flightDir,
		// Keep the dead worker nominally healthy so forwards still run
		// and count their 5xx codes instead of being shed pre-forward.
		healthEvery: time.Hour,
	})
	defer stopRouter()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	client := serve.NewClient(routerBase)
	for i := 0; i < 5; i++ {
		if _, err := client.Predict(ctx, sparseSampleOf(ds, i)); err != nil {
			t.Fatal(err)
		}
	}

	// Induced error burst: stop the worker and keep sending; every
	// forward fails and srdaroute_requests_total{code="500"} burns the
	// availability budget at 10x (all-bad vs a 10% budget).
	stopWorker()
	burstEnd := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(burstEnd) {
		_, _ = client.Predict(ctx, sparseSampleOf(ds, 0))
		time.Sleep(25 * time.Millisecond)
	}
	waitAlertState(t, ctx, routerBase, telemetry.StateFiring, 15*time.Second)

	// Recovery: traffic stops, the burst ages out of both windows, and
	// the alert resolves.
	waitAlertState(t, ctx, routerBase, telemetry.StateResolved, 20*time.Second)

	bundles, err := filepath.Glob(filepath.Join(flightDir, "flight-slo_burn-*.json"))
	if err != nil || len(bundles) == 0 {
		t.Fatalf("no slo_burn flight bundle in %s (err=%v)", flightDir, err)
	}
	data, err := os.ReadFile(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := obs.ValidateFlightBundle(data)
	if err != nil {
		t.Fatalf("slo_burn bundle does not validate: %v", err)
	}
	if bundle.Trigger != "slo_burn" {
		t.Errorf("bundle trigger = %q", bundle.Trigger)
	}
}
