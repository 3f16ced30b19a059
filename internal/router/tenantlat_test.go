package router

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"srda/internal/obs"
	"srda/internal/serve"
)

// clockBackend answers every predict instantly but advances the router's
// frozen clock by a fixed amount per call, so forward latency is exact.
type clockBackend struct {
	name    string
	now     *time.Time
	advance time.Duration
}

func (b *clockBackend) Name() string { return b.name }

func (b *clockBackend) Predict(context.Context, *serve.PredictRequest) (*serve.PredictResponse, error) {
	*b.now = b.now.Add(b.advance)
	return &serve.PredictResponse{Classes: []int{0}}, nil
}

func (b *clockBackend) Health(context.Context) (*serve.Health, error) {
	return &serve.Health{Status: "ok"}, nil
}

// TestTenantLatencyQuantilesFrozenClock: with the injected clock driving
// both quota refill and forward timing, the per-tenant latency gauge
// family exposes exact quantiles (the CKMS sketch is exact at small
// counts), sorted by tenant, with untouched tenants absent.
func TestTenantLatencyQuantilesFrozenClock(t *testing.T) {
	now := time.Unix(1000, 0)
	// One replica owns the whole ring, so both tenants land on it; its
	// advance is overridden per phase below.
	b := &clockBackend{name: "w0", now: &now}
	r, err := New([]Backend{b}, Options{Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Dyadic latencies render exactly under %g.
	b.advance = 15625 * time.Microsecond // 2^-6 s
	for i := 0; i < 4; i++ {
		if _, err := r.Predict(context.Background(), &serve.PredictRequest{Model: "acme"}); err != nil {
			t.Fatal(err)
		}
	}
	b.advance = 250 * time.Millisecond // 2^-2 s
	for i := 0; i < 4; i++ {
		if _, err := r.Predict(context.Background(), &serve.PredictRequest{Model: "zeta"}); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	for _, want := range []string{
		`srdaroute_tenant_latency_p99{tenant="acme"} 0.015625`,
		`srdaroute_tenant_latency_p99{tenant="zeta"} 0.25`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Tenant order is sorted: acme's line precedes zeta's.
	if strings.Index(text, `p99{tenant="acme"}`) > strings.Index(text, `p99{tenant="zeta"}`) {
		t.Error("tenant gauge family not sorted by tenant")
	}
	if strings.Contains(text, `tenant="default"`) {
		t.Errorf("untouched default tenant appeared in the gauge family:\n%s", text)
	}
}

// TestUnknownModelNamesLeaveNoState: a client picks the model name, so
// 20,000 predicts for distinct names no replica serves, each a 404, must
// add no exposition line on the router or the workers, no tenant
// latency sketch, and no lasting quota bucket.  A known predict and an
// unknown one on each replica come first, since the first 200 and each
// replica's first 404 add their status-code series once.
func TestUnknownModelNamesLeaveNoState(t *testing.T) {
	now := time.Unix(4000, 0)
	// Every read moves the clock a second, so every bucket but the
	// newest has refilled to its burst of one by the next sweep.
	clock := func() time.Time { now = now.Add(time.Second); return now }
	r, reg, workers := colocated(t, 2, Options{QuotaRPS: 1, QuotaBurst: 1, Clock: clock})
	lines := func(regs ...*obs.Registry) int {
		var sb strings.Builder
		for _, g := range regs {
			g.WritePrometheus(&sb)
		}
		return strings.Count(sb.String(), "\n")
	}
	workerRegs := []*obs.Registry{workers[0].Registry(), workers[1].Registry(), reg.Metrics()}
	predict := func(model string, want int) {
		t.Helper()
		rec := routeOne(r, `{"model":"`+model+`","samples":[{"dense":[0,0,0,0,0,0,0,0]}]}`)
		if rec.Code != want {
			t.Fatalf("%s: %d %q, want %d", model, rec.Code, rec.Body.String(), want)
		}
	}
	predict("tenant-0", http.StatusOK)
	for i := 0; r.mx.requests.Value("worker-0", "404") == 0 || r.mx.requests.Value("worker-1", "404") == 0; i++ {
		predict(fmt.Sprintf("warm-%d", i), http.StatusNotFound)
	}
	routerLines, workerLines, sketches := lines(r.Registry()), lines(workerRegs...), len(r.tenantLat)
	for i := 0; i < 20000; i++ {
		predict(fmt.Sprintf("ghost-%d", i), http.StatusNotFound)
	}
	if got := lines(r.Registry()); got != routerLines {
		t.Errorf("router exposition went from %d to %d lines", routerLines, got)
	}
	if got := lines(workerRegs...); got != workerLines {
		t.Errorf("worker exposition went from %d to %d lines", workerLines, got)
	}
	if got := len(r.tenantLat); got != sketches {
		t.Errorf("tenant sketches went from %d to %d", sketches, got)
	}
	if got := len(r.quotas.buckets); got > 2 {
		t.Errorf("%d quota buckets after the sweep, want at most the newest two", got)
	}
}

// TestRouterTracePropagation: an incoming traceparent header continues
// the caller's trace ("route" is a remote child), the "forward" span
// nests under it, and the typed client re-injects the forward span onto
// the outgoing hop.
func TestRouterTracePropagation(t *testing.T) {
	clock := time.Unix(0, 0)
	tracer := obs.NewTracerSeeded(16, 7, func() time.Time {
		clock = clock.Add(time.Millisecond)
		return clock
	})

	// The downstream "worker" just records the traceparent it received.
	var gotHeader string
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		gotHeader = req.Header.Get(obs.TraceparentHeader)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"classes":[0],"model_seq":1}`))
	}))
	defer worker.Close()

	r, err := New([]Backend{&HTTPBackend{ReplicaName: "w0", Client: serve.NewClient(worker.URL)}},
		Options{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// A remote caller's coordinates: trace 0xabc, parent span 0x17.
	req := httptest.NewRequest(http.MethodPost, "/v1/predict",
		strings.NewReader(`{"samples":[{"dense":[1]}]}`))
	req.Header.Set(obs.TraceparentHeader, "00-00000000000000000000000000000abc-0000000000000017-01")
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", rec.Code, rec.Body.String())
	}

	spans := tracer.Snapshot()
	byName := map[string]obs.SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	route, ok := byName["route"]
	if !ok {
		t.Fatalf("no route span in %v", spans)
	}
	if route.Trace != 0xabc || route.Parent != 0x17 {
		t.Fatalf("route span trace/parent = %x/%x, want abc/17", route.Trace, route.Parent)
	}
	forward, ok := byName["forward"]
	if !ok {
		t.Fatalf("no forward span in %v", spans)
	}
	if forward.Trace != 0xabc || forward.Parent != route.ID {
		t.Fatalf("forward span trace/parent = %x/%x, want abc/%x", forward.Trace, forward.Parent, route.ID)
	}
	// The outgoing hop carried the forward span's coordinates.
	wantHeader := "00-0000000000000000" + "0000000000000abc" + "-"
	if !strings.HasPrefix(gotHeader, wantHeader) {
		t.Fatalf("outgoing traceparent %q does not continue trace abc", gotHeader)
	}
	trace, parent, ok := obs.ExtractTrace(http.Header{obs.TraceparentHeader: []string{gotHeader}})
	if !ok || trace != 0xabc || parent != forward.ID {
		t.Fatalf("outgoing header = %q (trace %x parent %x), want trace abc parent %x",
			gotHeader, trace, parent, forward.ID)
	}
}
