package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"srda/internal/obs"
)

func validConfig() string {
	return `{
  "schema": "srda-slo/v1",
  "objectives": [
    {"name": "availability", "kind": "availability", "metric": "srdaroute_requests_total", "target": 0.99},
    {"name": "latency", "kind": "latency_p99", "metric": "srdaserve_request_latency_p99", "target": 0.95, "threshold_seconds": 0.25}
  ]
}`
}

func TestValidateSLOConfig(t *testing.T) {
	cfg, err := ValidateSLOConfig([]byte(validConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Windows) != 2 || cfg.Windows[0].Name != "fast" || cfg.Windows[1].Burn != 6 {
		t.Errorf("default windows = %+v", cfg.Windows)
	}
	if cfg.Objectives[0].CodeLabel != "code" || cfg.Objectives[0].PendingForSeconds != 60 {
		t.Errorf("availability defaults = %+v", cfg.Objectives[0])
	}

	bad := []struct {
		name string
		doc  string
	}{
		{"wrong schema", `{"schema": "srda-slo/v2", "objectives": [{"name": "a", "kind": "availability", "metric": "m", "target": 0.9}]}`},
		{"no objectives", `{"schema": "srda-slo/v1", "objectives": []}`},
		{"unknown field", `{"schema": "srda-slo/v1", "objectives": [{"name": "a", "kind": "availability", "metric": "m", "target": 0.9}], "extra": 1}`},
		{"unknown kind", `{"schema": "srda-slo/v1", "objectives": [{"name": "a", "kind": "latency_p50", "metric": "m", "target": 0.9}]}`},
		{"target out of range", `{"schema": "srda-slo/v1", "objectives": [{"name": "a", "kind": "availability", "metric": "m", "target": 1.5}]}`},
		{"latency without threshold", `{"schema": "srda-slo/v1", "objectives": [{"name": "a", "kind": "latency_p99", "metric": "m", "target": 0.9}]}`},
		{"duplicate objective", `{"schema": "srda-slo/v1", "objectives": [{"name": "a", "kind": "availability", "metric": "m", "target": 0.9}, {"name": "a", "kind": "availability", "metric": "m", "target": 0.9}]}`},
		{"duplicate window", `{"schema": "srda-slo/v1", "objectives": [{"name": "a", "kind": "availability", "metric": "m", "target": 0.9}], "windows": [{"name": "w", "short_seconds": 60, "long_seconds": 600, "burn": 2}, {"name": "w", "short_seconds": 30, "long_seconds": 300, "burn": 4}]}`},
		{"trailing data", validConfig() + " {}"},
		{"trailing garbage", validConfig() + " trailing garbage"},
		{"second document", validConfig() + `{"more":1}`},
		{"bad window", `{"schema": "srda-slo/v1", "objectives": [{"name": "a", "kind": "availability", "metric": "m", "target": 0.9}], "windows": [{"name": "w", "short_seconds": 60, "long_seconds": 30, "burn": 2}]}`},
	}
	for _, c := range bad {
		if _, err := ValidateSLOConfig([]byte(c.doc)); err == nil {
			t.Errorf("%s: config accepted", c.name)
		}
	}
}

// ingestCounts pushes one availability counter point per code at now.
func ingestCounts(st *Store, now time.Time, ok, errs float64) {
	st.Ingest(now, []obs.PromFamily{{
		Name: "srdaroute_requests_total", Type: "counter",
		Samples: []obs.PromSample{
			{Name: "srdaroute_requests_total", Labels: []obs.PromLabel{{Name: "code", Value: "200"}}, Value: ok},
			{Name: "srdaroute_requests_total", Labels: []obs.PromLabel{{Name: "code", Value: "503"}}, Value: errs},
		},
	}})
}

// TestSLOLifecycle drives one alert through the full state machine
// under a frozen clock: clean traffic, then a 503 burst (pending, then
// firing after pending_for holds), then recovery (resolved), and the
// slo_burn flight bundle lands on the firing transition.
func TestSLOLifecycle(t *testing.T) {
	dir := t.TempDir()
	now := t0
	clock := func() time.Time { return now }

	flight := obs.NewFlightRecorder(obs.FlightOptions{
		Dir: dir, Process: "router-test", Clock: clock,
	})
	reg := obs.NewRegistry()
	cfg, err := ValidateSLOConfig([]byte(`{
  "schema": "srda-slo/v1",
  "objectives": [
    {"name": "availability", "kind": "availability", "metric": "srdaroute_requests_total",
     "target": 0.99, "pending_for_seconds": 30}
  ],
  "windows": [{"name": "fast", "short_seconds": 60, "long_seconds": 300, "burn": 10}]
}`))
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(256)
	eng := NewSLOEngine(cfg, st, SLOEngineOptions{Clock: clock, Registry: reg, Flight: flight})

	find := func() Alert {
		alerts := eng.Alerts()
		if len(alerts) != 1 {
			t.Fatalf("alerts = %+v", alerts)
		}
		return alerts[0]
	}

	// 5 minutes of clean traffic at 10 rps.
	var ok, errs float64
	for sec := 0; sec <= 300; sec += 15 {
		now = t0.Add(time.Duration(sec) * time.Second)
		ok += 150
		ingestCounts(st, now, ok, errs)
		eng.Evaluate(now)
	}
	if a := find(); a.State != StateInactive {
		t.Fatalf("after clean traffic: %+v", a)
	}

	// Error burst: every request 503s.  Burn = 1.0/0.01 = 100 >> 10 in
	// the short window; the long window needs enough errored history to
	// cross too.
	burstStart := now
	for sec := 15; sec <= 45; sec += 15 {
		now = burstStart.Add(time.Duration(sec) * time.Second)
		errs += 150
		ingestCounts(st, now, ok, errs)
		eng.Evaluate(now)
	}
	a := find()
	if a.State != StatePending {
		t.Fatalf("mid-burst: %+v", a)
	}
	if a.Burn < 10 || a.LongBurn < 10 {
		t.Fatalf("burn rates not over threshold: %+v", a)
	}

	// Hold the burst past pending_for: fires.
	for sec := 60; sec <= 90; sec += 15 {
		now = burstStart.Add(time.Duration(sec) * time.Second)
		errs += 150
		ingestCounts(st, now, ok, errs)
		eng.Evaluate(now)
	}
	a = find()
	if a.State != StateFiring {
		t.Fatalf("after pending_for: %+v", a)
	}
	if flight.DumpCount() != 1 {
		t.Fatalf("flight dumps = %d, want 1", flight.DumpCount())
	}

	// The dumped bundle validates and carries the slo_burn trigger.
	matches, err := filepath.Glob(filepath.Join(dir, "flight-slo_burn-*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("bundle files = %v (%v)", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := obs.ValidateFlightBundle(data)
	if err != nil {
		t.Fatalf("bundle does not validate: %v", err)
	}
	if bundle.Trigger != "slo_burn" || bundle.Threshold != 10 || bundle.Value < 10 {
		t.Errorf("bundle = trigger %q value %v threshold %v", bundle.Trigger, bundle.Value, bundle.Threshold)
	}

	// Recovery: clean traffic again until the short window's errors
	// slide out; the alert resolves.
	recStart := now
	for sec := 15; sec <= 120; sec += 15 {
		now = recStart.Add(time.Duration(sec) * time.Second)
		ok += 150
		ingestCounts(st, now, ok, errs)
		eng.Evaluate(now)
	}
	a = find()
	if a.State != StateResolved {
		t.Fatalf("after recovery: %+v", a)
	}
	if a.Transitions != 3 { // inactive -> pending -> firing -> resolved
		t.Errorf("transitions = %d, want 3", a.Transitions)
	}

	// srdaslo_* metrics recorded the journey.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	exp := sb.String()
	for _, want := range []string{
		`srdaslo_transitions_total{objective="availability",window="fast",to="pending"} 1`,
		`srdaslo_transitions_total{objective="availability",window="fast",to="firing"} 1`,
		`srdaslo_transitions_total{objective="availability",window="fast",to="resolved"} 1`,
		"srdaslo_alerts_firing 0",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q\n%s", want, exp)
		}
	}
}

// TestSLOLatencyObjective checks the latency_p99 burn path: a gauge
// series sitting above the threshold burns budget, below does not.
func TestSLOLatencyObjective(t *testing.T) {
	now := t0
	cfg, err := ValidateSLOConfig([]byte(`{
  "schema": "srda-slo/v1",
  "objectives": [
    {"name": "latency", "kind": "latency_p99", "metric": "srdaserve_request_latency_p99",
     "target": 0.9, "threshold_seconds": 0.25, "pending_for_seconds": 1}
  ],
  "windows": [{"name": "fast", "short_seconds": 60, "long_seconds": 120, "burn": 5}]
}`))
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(64)
	eng := NewSLOEngine(cfg, st, SLOEngineOptions{Clock: func() time.Time { return now }})

	gauge := func(v float64, when time.Time) {
		st.Ingest(when, []obs.PromFamily{{
			Name: "srdaserve_request_latency_p99", Type: "gauge",
			Samples: []obs.PromSample{{Name: "srdaserve_request_latency_p99", Value: v}},
		}})
	}
	for sec := 0; sec <= 120; sec += 15 {
		now = t0.Add(time.Duration(sec) * time.Second)
		gauge(0.1, now)
		eng.Evaluate(now)
	}
	if a := eng.Alerts()[0]; a.State != StateInactive || a.Burn != 0 {
		t.Fatalf("fast latency: %+v", a)
	}
	slowStart := now
	for sec := 15; sec <= 90; sec += 15 {
		now = slowStart.Add(time.Duration(sec) * time.Second)
		gauge(0.9, now)
		eng.Evaluate(now)
	}
	a := eng.Alerts()[0]
	if a.State != StateFiring {
		t.Fatalf("slow latency: %+v", a)
	}
}

func TestAlertsHandler(t *testing.T) {
	cfg, err := ValidateSLOConfig([]byte(validConfig()))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewSLOEngine(cfg, NewStore(16), SLOEngineOptions{Clock: func() time.Time { return t0 }})
	rec := httptest.NewRecorder()
	eng.Handler()(rec, httptest.NewRequest("GET", "/debug/alerts", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var body struct {
		Alerts []Alert `json:"alerts"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	// 2 objectives × 2 default windows, sorted by objective/window.
	if len(body.Alerts) != 4 || body.Alerts[0].Objective != "availability" || body.Alerts[0].Window != "fast" {
		t.Errorf("alert table = %+v", body.Alerts)
	}
	rec = httptest.NewRecorder()
	eng.Handler()(rec, httptest.NewRequest("POST", "/debug/alerts", nil))
	if rec.Code != 405 {
		t.Errorf("POST code = %d", rec.Code)
	}
}
