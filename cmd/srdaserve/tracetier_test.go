package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"srda"
	"srda/internal/obs"
	"srda/internal/serve"
)

// postTraced POSTs body to url carrying the given traceparent header and
// fails the test on a non-200 reply.
func postTraced(t *testing.T, ctx context.Context, url, traceparent string, body []byte) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, traceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }() // test helper; status is the signal
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s = %d: %s", url, resp.StatusCode, msg)
	}
}

// spansByTrace decodes a Chrome trace export and groups span names and
// parent links by trace id.
func spansByTrace(t *testing.T, raw []byte) map[uint64]map[uint64]struct {
	name   string
	parent uint64
} {
	t.Helper()
	var tr chromeTrace
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	out := map[uint64]map[uint64]struct {
		name   string
		parent uint64
	}{}
	for _, ev := range tr.TraceEvents {
		if out[ev.TID] == nil {
			out[ev.TID] = map[uint64]struct {
				name   string
				parent uint64
			}{}
		}
		out[ev.TID][ev.Args.SpanID] = struct {
			name   string
			parent uint64
		}{ev.Name, ev.Args.ParentID}
	}
	return out
}

// observeBody builds a /v1/observe payload with at least four samples of
// every class, enough for a publishable refit.
func observeBody(t *testing.T, ds *srda.Dataset, classes, perClass int) []byte {
	t.Helper()
	counts := make([]int, classes)
	var samples []serve.LabeledSample
	for i := 0; i < len(ds.Labels) && len(samples) < classes*perClass; i++ {
		if counts[ds.Labels[i]] >= perClass {
			continue
		}
		counts[ds.Labels[i]]++
		samples = append(samples, serve.LabeledSample{Sample: sparseSampleOf(ds, i), Label: ds.Labels[i]})
	}
	if len(samples) != classes*perClass {
		t.Fatalf("dataset too small: collected %d samples", len(samples))
	}
	body, err := json.Marshal(serve.ObserveRequest{Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestEndToEndTraceAll is the single-trace acceptance path for the
// co-located tier: a predict entering the router under a remote
// traceparent must leave route → forward → request → batch → kernel
// spans all on that one trace id, and a /v1/observe that triggers a
// refit must leave observe → refit → solve stages on its own single
// trace.
func TestEndToEndTraceAll(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.bin")
	_, ds := trainAndSave(t, modelPath, 47)

	base, debugBase, stop := startServer(t, config{
		role:         "all",
		replicas:     "1",
		modelPath:    modelPath,
		debugAddr:    "127.0.0.1:0",
		maxBatch:     8,
		online:       true,
		refitSamples: 9, // fires inside the single 12-sample observe below
	})
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Predict under remote trace 0xabc, parent span 0x17.
	predictBody, err := json.Marshal(serve.PredictRequest{Samples: []serve.Sample{sparseSampleOf(ds, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	postTraced(t, ctx, base+"/v1/predict",
		"00-00000000000000000000000000000abc-0000000000000017-01", predictBody)

	// Observe under remote trace 0xdef; 12 samples with -refit-samples=9
	// makes the trainer refit synchronously inside this request.
	postTraced(t, ctx, base+"/v1/observe",
		"00-00000000000000000000000000000def-0000000000000019-01", observeBody(t, ds, ds.NumClasses, 4))

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, debugBase+"/debug/traces", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	byTrace := spansByTrace(t, raw)

	// The predict trace: route continues the remote parent, and the whole
	// router → worker → batch → kernel chain shares trace 0xabc.
	predict := byTrace[0xabc]
	if predict == nil {
		t.Fatalf("no spans on trace abc; traces: %v", len(byTrace))
	}
	names := map[string]bool{}
	kernel := false
	for _, sp := range predict {
		names[sp.name] = true
		if sp.name == "core.project_csr" || sp.name == "core.gemm" {
			kernel = true
		}
		if sp.name == "route" && sp.parent != 0x17 {
			t.Errorf("route span parent = %x, want the remote caller's 17", sp.parent)
		}
	}
	for _, want := range []string{"route", "forward", "request", "batch"} {
		if !names[want] {
			t.Errorf("trace abc missing %q span; have %v", want, names)
		}
	}
	if !kernel {
		t.Errorf("trace abc has no kernel span under the batch; have %v", names)
	}

	// The observe trace: ingestion and the refit it triggered share 0xdef.
	observe := byTrace[0xdef]
	if observe == nil {
		t.Fatal("no spans on trace def")
	}
	names = map[string]bool{}
	var refit uint64
	for id, sp := range observe {
		names[sp.name] = true
		if sp.name == "refit" {
			refit = id
		}
	}
	for _, want := range []string{"observe", "refit"} {
		if !names[want] {
			t.Errorf("trace def missing %q span; have %v", want, names)
		}
	}
	// The refit's solve stages nest under it on the same trace.
	stages := map[string]bool{}
	for _, sp := range observe {
		if sp.parent == refit {
			stages[sp.name] = true
		}
	}
	for _, want := range []string{"responses", "cholesky", "xty", "solve"} {
		if !stages[want] {
			t.Errorf("refit span has no %q child; children %v", want, stages)
		}
	}
}

// TestTwoProcessTraceMergeAndFlight runs a real two-process topology —
// an HTTP worker and a router forwarding to it — inside one test
// binary: a traced predict crosses both rings, the flushed per-process
// artifacts merge into one timeline carrying the trace in both
// processes, and the worker's 1ns p99 SLO forces a flight bundle that
// validates against the committed schema.
func TestTwoProcessTraceMergeAndFlight(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.bin")
	_, ds := trainAndSave(t, modelPath, 53)
	flightDir := filepath.Join(dir, "flight")
	if err := os.Mkdir(flightDir, 0o755); err != nil {
		t.Fatal(err)
	}
	workerTrace := filepath.Join(dir, "worker.json")
	routerTrace := filepath.Join(dir, "router.json")

	workerBase, _, stopWorker := startServer(t, config{
		modelPath: modelPath,
		maxBatch:  8,
		traceOut:  workerTrace,
		flightDir: flightDir,
		flightP99: time.Nanosecond, // any real request breaches
	})
	routerBase, _, stopRouter := startServer(t, config{
		role:     "router",
		replicas: workerBase,
		traceOut: routerTrace,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	body, err := json.Marshal(serve.PredictRequest{Samples: []serve.Sample{sparseSampleOf(ds, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	postTraced(t, ctx, routerBase+"/v1/predict",
		"00-00000000000000000000000000000abc-0000000000000017-01", body)

	// SIGTERM both processes so each flushes its own -trace-out.
	stopRouter()
	stopWorker()

	routerRaw, err := os.ReadFile(routerTrace)
	if err != nil {
		t.Fatal(err)
	}
	workerRaw, err := os.ReadFile(workerTrace)
	if err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	if err := obs.MergeChromeTraces(&merged, []obs.TraceArtifact{
		{Label: "router", Data: routerRaw},
		{Label: "worker", Data: workerRaw},
	}); err != nil {
		t.Fatal(err)
	}

	// The merged timeline carries trace 0xabc in BOTH processes: the
	// router's route/forward spans under pid 1 and the worker's
	// request/batch spans under pid 2.
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			TID  uint64 `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(merged.Bytes(), &tr); err != nil {
		t.Fatalf("merged trace does not parse: %v", err)
	}
	namesByPid := map[int]map[string]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" || ev.TID != 0xabc {
			continue
		}
		if namesByPid[ev.PID] == nil {
			namesByPid[ev.PID] = map[string]bool{}
		}
		namesByPid[ev.PID][ev.Name] = true
	}
	if len(namesByPid) < 2 {
		t.Fatalf("trace abc spans %d process(es) after merge, want 2: %v", len(namesByPid), namesByPid)
	}
	for pid, wants := range map[int][]string{1: {"route", "forward"}, 2: {"request", "batch"}} {
		for _, want := range wants {
			if !namesByPid[pid][want] {
				t.Errorf("merged trace abc missing %q under pid %d: %v", want, pid, namesByPid)
			}
		}
	}

	// The breached SLO must have dumped at least one bundle that passes
	// in-process validation AND carries every field the committed schema
	// requires.
	bundles, err := filepath.Glob(filepath.Join(flightDir, "flight-p99_breach-*.json"))
	if err != nil || len(bundles) == 0 {
		t.Fatalf("no p99_breach flight bundles in %s (err %v)", flightDir, err)
	}
	var schema struct {
		Required []string `json:"required"`
	}
	schemaRaw, err := os.ReadFile(filepath.Join("..", "..", "doc", "flight_schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(schemaRaw, &schema); err != nil {
		t.Fatal(err)
	}
	if len(schema.Required) == 0 {
		t.Fatal("doc/flight_schema.json lists no required fields")
	}
	for _, path := range bundles {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bundle, err := obs.ValidateFlightBundle(raw)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if bundle.Trigger != "p99_breach" || bundle.Process != "worker" {
			t.Fatalf("%s: trigger/process = %s/%s", path, bundle.Trigger, bundle.Process)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		for _, key := range schema.Required {
			if _, ok := fields[key]; !ok {
				t.Errorf("%s: missing schema-required field %q", path, key)
			}
		}
	}
}
