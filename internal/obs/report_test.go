package obs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func validReport() *Report {
	return &Report{
		Tool:         "srdatrain",
		Phases:       []Phase{{Name: "responses", Seconds: 0.01}, {Name: "lsqr", Seconds: 0.5}},
		TotalSeconds: 0.6,
		Solver: &SolverStats{
			Strategy:   "lsqr",
			TotalIters: 25,
			IterCounts: []int{10, 15},
			Residuals:  []float64{0.1, 0.2},
		},
		Data: map[string]float64{"samples": 100},
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	if err := validReport().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ValidateReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tool != "srdatrain" || len(r.Phases) != 2 || r.Solver.TotalIters != 25 {
		t.Fatalf("round-trip mismatch: %+v", r)
	}
}

func TestValidateReportRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Report)
		errSub string
	}{
		{"no tool", func(r *Report) { r.Tool = "" }, "missing tool"},
		{"no phases", func(r *Report) { r.Phases = nil }, "no phases"},
		{"unnamed phase", func(r *Report) { r.Phases[0].Name = "" }, "has no name"},
		{"negative seconds", func(r *Report) { r.Phases[0].Seconds = -1 }, "invalid seconds"},
		{"negative total", func(r *Report) { r.TotalSeconds = -1 }, "total_seconds"},
		{"strategy missing", func(r *Report) { r.Solver.Strategy = "" }, "missing strategy"},
		{"length mismatch", func(r *Report) { r.Solver.Residuals = r.Solver.Residuals[:1] }, "residuals"},
		{"iters mismatch", func(r *Report) { r.Solver.TotalIters = 7 }, "sum to"},
		{"negative iter", func(r *Report) { r.Solver.IterCounts[0] = -1; r.Solver.TotalIters = 14 }, "negative iteration"},
		{"negative residual", func(r *Report) { r.Solver.Residuals[0] = -0.5 }, "invalid residual"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := validReport()
			tc.mutate(r)
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ValidateReport(data); err == nil || !strings.Contains(err.Error(), tc.errSub) {
				t.Fatalf("want error containing %q, got %v", tc.errSub, err)
			}
		})
	}
}

func TestValidateReportRejectsUnknownFields(t *testing.T) {
	if _, err := ValidateReport([]byte(`{"tool":"x","phases":[{"name":"a","seconds":1}],"bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ValidateReport([]byte(`not json`)); err == nil {
		t.Fatal("non-JSON accepted")
	}
	valid, err := json.Marshal(validReport())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateReport(append(valid, " \n"...)); err != nil {
		t.Fatalf("valid report with trailing white space rejected: %v", err)
	}
	for _, tail := range []string{" trailing garbage", `{"more":1}`} {
		if _, err := ValidateReport(append(valid, tail...)); err == nil {
			t.Errorf("report followed by %q accepted", tail)
		}
	}
}

func TestWriteFileRefusesInvalidReport(t *testing.T) {
	r := validReport()
	r.Tool = ""
	if err := r.WriteFile(filepath.Join(t.TempDir(), "r.json")); err == nil {
		t.Fatal("invalid report written")
	}
}

func TestAddSpansAggregates(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0), step: time.Second}
	tr := NewTracerClock(8, clk.read)
	_, root := tr.StartRoot(context.Background(), "run")
	a := root.StartChild("responses")
	a.End()
	for i := 0; i < 2; i++ {
		sp := root.StartChild("lsqr")
		sp.End()
	}
	w := root.StartChild("whiten")
	inner := w.StartChild("inner") // a grandchild is not a phase
	inner.End()
	w.End()
	_, other := tr.StartRoot(context.Background(), "other") // nor is another root
	other.End()
	root.End()
	var r Report
	r.AddSpans(tr.Snapshot(), root.SpanID())
	want := []Phase{{"responses", 1}, {"lsqr", 2}, {"whiten", 3}}
	if len(r.Phases) != len(want) {
		t.Fatalf("phases = %+v, want %+v", r.Phases, want)
	}
	for i, p := range want {
		if r.Phases[i] != p {
			t.Fatalf("phase %d = %+v, want %+v (same-name children summed, completion order)", i, r.Phases[i], p)
		}
	}
}

func TestStartProfilesWritesFiles(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "p")
	tracePath := filepath.Join(dir, "t.trace")
	stop, err := StartProfiles(prefix, tracePath)
	if err != nil {
		t.Fatal(err)
	}
	// A little work so the profiles are non-trivial.
	x := 0.0
	for i := 0; i < 1000; i++ {
		x += float64(i)
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{prefix + ".cpu.pprof", prefix + ".heap.pprof", tracePath} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile artifact %s missing or empty: %v", p, err)
		}
	}
	// Both empty: stop is a no-op.
	stop, err = StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
