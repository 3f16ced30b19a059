package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// TestExemplarWindowMax: the store keeps the slowest traced observation
// per window and rolls completed windows forward.
func TestExemplarWindowMax(t *testing.T) {
	e := NewExemplarStore(0)
	e.Observe("lat", 0.010, 101)
	e.Observe("lat", 0.050, 102)
	e.Observe("lat", 0.020, 103)

	snap := e.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d exemplars, want 1", len(snap))
	}
	ex := snap[0]
	if ex.Kind != "window_max" || ex.Metric != "lat" || ex.Value != 0.050 || ex.TraceID != FormatTraceID(102) {
		t.Fatalf("exemplar = %+v", ex)
	}

	// Complete the window; the max survives as last-window max even when
	// the next window opens slower.
	for i := 3; i < DefaultExemplarWindow; i++ {
		e.Observe("lat", 0.001, 104)
	}
	e.Observe("lat", 0.002, 105)
	snap = e.Snapshot()
	if snap[0].TraceID != FormatTraceID(102) {
		t.Fatalf("completed-window max lost: %+v", snap[0])
	}
	// Completing the second window rolls the first one's max out.
	for i := 1; i < DefaultExemplarWindow; i++ {
		e.Observe("lat", 0.001, 106)
	}
	snap = e.Snapshot()
	if snap[0].TraceID != FormatTraceID(105) {
		t.Fatalf("second window's max = %+v, want trace 105", snap[0])
	}
}

// TestExemplarSLOBreach: the first over-SLO observation of a window is
// kept, later breaches in the same window are not.
func TestExemplarSLOBreach(t *testing.T) {
	e := NewExemplarStore(0.100)
	e.Observe("lat", 0.050, 201)
	e.Observe("lat", 0.150, 202) // first breach
	e.Observe("lat", 0.300, 203) // bigger, but not first

	var breach *Exemplar
	for _, ex := range e.Snapshot() {
		if ex.Kind == "slo_breach" {
			b := ex
			breach = &b
		}
	}
	if breach == nil {
		t.Fatal("no slo_breach exemplar")
	}
	if breach.Value != 0.150 || breach.TraceID != FormatTraceID(202) {
		t.Fatalf("breach = %+v, want the first over-SLO observation", breach)
	}
}

// TestExemplarSkipsUntracedAndNil: trace 0 and a nil store are no-ops.
func TestExemplarSkipsUntracedAndNil(t *testing.T) {
	e := NewExemplarStore(0)
	e.Observe("lat", 9.0, 0)
	if snap := e.Snapshot(); len(snap) != 0 {
		t.Fatalf("untraced observation produced exemplars: %+v", snap)
	}
	var nilStore *ExemplarStore
	nilStore.Observe("lat", 1.0, 1)
	if nilStore.Snapshot() != nil {
		t.Fatal("nil store has state")
	}
}

// TestExemplarHandler serves the snapshot as a JSON array, deterministic
// order by metric name.
func TestExemplarHandler(t *testing.T) {
	e := NewExemplarStore(0)
	e.Observe("zeta", 2.0, 301)
	e.Observe("alpha", 1.0, 302)

	rr := httptest.NewRecorder()
	e.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/exemplars", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var got []Exemplar
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if len(got) != 2 || got[0].Metric != "alpha" || got[1].Metric != "zeta" {
		t.Fatalf("snapshot order: %+v", got)
	}
}

// TestTracedInstruments: QuantileSketch.ObserveTraced feeds both the
// sketch and the store.
func TestTracedInstruments(t *testing.T) {
	e := NewExemplarStore(0)
	q := NewQuantileSketch()
	q.AttachExemplars("lat_sketch", e)
	q.ObserveTraced(0.25, 402)
	if q.Count() != 1 {
		t.Fatal("sketch missed the observation")
	}
	snap := e.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("store holds %d exemplars, want 1: %+v", len(snap), snap)
	}
	if snap[0].Metric != "lat_sketch" {
		t.Fatalf("metrics: %+v", snap)
	}
}

// TestGaugeVecFunc pins the labeled gauge-family exposition format.
func TestGaugeVecFunc(t *testing.T) {
	reg := NewRegistry()
	reg.NewGaugeVecFunc("tenant_lat", "per-tenant latency", []string{"tenant", "quantile"}, func() []GaugeSample {
		return []GaugeSample{
			{Labels: []string{"acme", "p99"}, Value: 0.25},
			{Labels: []string{"bravo", "p99"}, Value: 0.5},
			{Labels: []string{"bad"}}, // wrong arity: dropped
		}
	})
	var sb []byte
	buf := &testWriter{buf: sb}
	reg.WritePrometheus(buf)
	want := "# HELP tenant_lat per-tenant latency\n" +
		"# TYPE tenant_lat gauge\n" +
		"tenant_lat{tenant=\"acme\",quantile=\"p99\"} 0.25\n" +
		"tenant_lat{tenant=\"bravo\",quantile=\"p99\"} 0.5\n"
	if string(buf.buf) != want {
		t.Fatalf("exposition:\n--- got ---\n%s--- want ---\n%s", buf.buf, want)
	}
}

type testWriter struct{ buf []byte }

func (w *testWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}
