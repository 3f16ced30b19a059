package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"srda/internal/serve"
)

// chromeTrace mirrors the exported Chrome trace-event shape for decoding.
type chromeTrace struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		TID  uint64 `json:"tid"`
		Args struct {
			TraceID  string `json:"trace_id"`
			SpanID   uint64 `json:"span_id"`
			ParentID uint64 `json:"parent_id"`
		} `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestTraceSmoke is the tracing acceptance path: the binary's run loop
// under 100+ concurrent predict requests must export a non-empty Chrome
// trace at /debug/traces whose spans nest request → batch → kernel with
// shared trace ids, expose rank-bounded latency quantiles on /metrics,
// and flush both artifacts to -trace-out/-metrics-out on SIGTERM.
func TestTraceSmoke(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.bin")
	traceOut := filepath.Join(dir, "trace.json")
	metricsOut := filepath.Join(dir, "metrics.prom")
	_, ds := trainAndSave(t, modelPath, 35)

	base, debugBase, stop := startServer(t, config{
		modelPath:  modelPath,
		debugAddr:  "127.0.0.1:0",
		maxBatch:   16,
		traceOut:   traceOut,
		metricsOut: metricsOut,
	})
	client := serve.NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const requests = 120
	var wg sync.WaitGroup
	for g := 0; g < requests; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := client.Predict(ctx, sparseSampleOf(ds, g%20)); err != nil {
				t.Errorf("request %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()

	get := func(url string) string {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }() // test helper; body is the signal
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", url, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	checkTrace := func(src, raw string) {
		t.Helper()
		var tr chromeTrace
		if err := json.Unmarshal([]byte(raw), &tr); err != nil {
			t.Fatalf("%s: not valid trace JSON: %v", src, err)
		}
		if len(tr.TraceEvents) == 0 {
			t.Fatalf("%s: empty traceEvents", src)
		}
		// Count spans per trace and check request→batch→kernel nesting.
		type span = struct {
			name   string
			parent uint64
		}
		byTrace := map[uint64]map[uint64]span{}
		for _, ev := range tr.TraceEvents {
			if ev.Ph != "X" {
				t.Fatalf("%s: unexpected phase %q", src, ev.Ph)
			}
			if byTrace[ev.TID] == nil {
				byTrace[ev.TID] = map[uint64]span{}
			}
			byTrace[ev.TID][ev.Args.SpanID] = span{ev.Name, ev.Args.ParentID}
		}
		if len(byTrace) < requests {
			t.Fatalf("%s: %d traces, want >= %d", src, len(byTrace), requests)
		}
		kernelOwners := 0
		for tid, spans := range byTrace {
			var rootID uint64
			for id, sp := range spans {
				if sp.name == "request" {
					if sp.parent != 0 {
						t.Fatalf("%s: trace %d request has parent", src, tid)
					}
					rootID = id
				}
			}
			if rootID == 0 {
				t.Fatalf("%s: trace %d has no request span", src, tid)
			}
			for _, sp := range spans {
				if sp.name == "batch" && sp.parent != rootID {
					t.Fatalf("%s: trace %d batch not under request", src, tid)
				}
				if sp.name == "core.project_csr" || sp.name == "core.gemm" {
					if parent, ok := spans[sp.parent]; !ok || parent.name != "batch" {
						t.Fatalf("%s: trace %d kernel span not under batch", src, tid)
					}
					kernelOwners++
				}
			}
		}
		if kernelOwners == 0 {
			t.Fatalf("%s: no kernel spans nested under any batch", src)
		}
	}
	checkTrace("/debug/traces", get(debugBase+"/debug/traces"))

	// /metrics must expose the streaming p99 with a plausible value.
	metricsText := get(base + "/metrics")
	if !strings.Contains(metricsText, "srdaserve_request_latency_p99 ") {
		t.Error("/metrics missing srdaserve_request_latency_p99")
	}
	if strings.Contains(metricsText, "latency_p99 NaN") {
		t.Error("p99 still NaN after 120 requests")
	}

	// SIGTERM must flush both artifacts before run() returns.
	stop()
	traceBytes, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("trace-out not written: %v", err)
	}
	checkTrace("-trace-out", string(traceBytes))
	metricsBytes, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatalf("metrics-out not written: %v", err)
	}
	for _, want := range []string{"srdaserve_samples_total", "srdaserve_request_latency_p99", "srdareg_"} {
		if !strings.Contains(string(metricsBytes), want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
}
