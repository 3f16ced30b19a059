package obs

import (
	"context"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func newTestRecorder(t *testing.T, opts FlightOptions) (*FlightRecorder, *fakeClock) {
	t.Helper()
	clk := &fakeClock{now: time.Unix(1000, 0), step: time.Millisecond}
	opts.Clock = clk.read
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Process == "" {
		opts.Process = "test-proc"
	}
	return NewFlightRecorder(opts), clk
}

func bundleFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestFlightP99BreachDumpsBundle: a p99 over the SLO dumps one validated
// bundle carrying the breaching trace's spans, captured logs, metric
// snapshots, and health records.
func TestFlightP99BreachDumpsBundle(t *testing.T) {
	dir := t.TempDir()
	f, _ := newTestRecorder(t, FlightOptions{Dir: dir, P99SLO: 0.200})

	tr := NewTracerSeeded(64, 9, (&fakeClock{now: time.Unix(0, 0), step: time.Millisecond}).read)
	f.AttachTracer(tr)
	ctx, root := tr.StartRoot(context.Background(), "request")
	_, child := StartSpan(ctx, "batch")
	child.End()
	root.End()
	_, other := tr.StartRoot(context.Background(), "request")
	other.End()

	reg := NewRegistry()
	reg.NewCounter("srdatest_requests_total", "requests").Add(7)
	f.AttachRegistry("serve", reg)

	e := NewExemplarStore(0.200)
	e.Observe("lat", 0.5, root.TraceID())
	f.AttachExemplars(e)

	log := f.CaptureLogs(NewLoggerClock(os.Stderr, slog.LevelError, false, (&fakeClock{now: time.Unix(0, 0), step: time.Millisecond}).read))
	log.Info("warming up", "model", "m1") // below sink level, still ringed

	f.RecordHealth(HealthRecord{Model: "m1", Trigger: "drift", CondEstimate: 12.5, HoldoutAccuracy: 0.9})

	f.CheckP99(0.150, root.TraceID()) // under SLO: no dump
	if n := f.DumpCount(); n != 0 {
		t.Fatalf("under-SLO check dumped %d bundles", n)
	}
	f.CheckP99(0.500, root.TraceID())
	if n := f.DumpCount(); n != 1 {
		t.Fatalf("dump count = %d, want 1", n)
	}

	files := bundleFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("bundle files: %v", files)
	}
	wantName := "flight-p99_breach-" + FormatTraceID(root.TraceID()) + ".json"
	if filepath.Base(files[0]) != wantName {
		t.Fatalf("bundle named %s, want %s", filepath.Base(files[0]), wantName)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := ValidateFlightBundle(data)
	if err != nil {
		t.Fatalf("bundle does not validate: %v", err)
	}
	if b.Trigger != "p99_breach" || b.Process != "test-proc" || b.Value != 0.5 || b.Threshold != 0.2 {
		t.Fatalf("bundle header: %+v", b)
	}
	if len(b.Spans) != 2 {
		t.Fatalf("bundle has %d spans, want the breaching trace's 2: %+v", len(b.Spans), b.Spans)
	}
	for _, sp := range b.Spans {
		if sp.TraceID != FormatTraceID(root.TraceID()) {
			t.Fatalf("span from foreign trace: %+v", sp)
		}
	}
	if len(b.Logs) != 1 || b.Logs[0].Message != "warming up" || b.Logs[0].Attrs["model"] != "m1" {
		t.Fatalf("bundle logs: %+v", b.Logs)
	}
	if !strings.Contains(b.Metrics["serve"], "srdatest_requests_total 7") {
		t.Fatalf("bundle metrics: %q", b.Metrics)
	}
	if len(b.Exemplars) != 2 || len(b.Health) != 1 || b.Health[0].CondEstimate != 12.5 {
		t.Fatalf("bundle exemplars/health: %+v / %+v", b.Exemplars, b.Health)
	}
}

// TestFlightCooldown: repeated triggers inside the cooldown dump once;
// the first trigger a full cooldown later dumps again.
func TestFlightCooldown(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{now: time.Unix(1000, 0), step: 0}
	f := NewFlightRecorder(FlightOptions{Dir: dir, Process: "p", Clock: clk.read, P99SLO: 0.1})
	f.CheckP99(1.0, 5)
	f.CheckP99(1.0, 5)
	if n := f.DumpCount(); n != 1 {
		t.Fatalf("cooldown let %d dumps through", n)
	}
	clk.now = clk.now.Add(flightCooldown - time.Second)
	f.CheckP99(1.0, 6)
	if n := f.DumpCount(); n != 1 {
		t.Fatalf("trigger a second before the cooldown ends dumped (count %d)", n)
	}
	clk.now = clk.now.Add(time.Second)
	f.CheckP99(1.0, 7)
	if n := f.DumpCount(); n != 2 {
		t.Fatalf("post-cooldown trigger did not dump (count %d)", n)
	}
}

// TestFlightShedStorm: the storm trigger needs shedStormThreshold sheds
// inside shedStormWindow; slow sheds never fire.
func TestFlightShedStorm(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{now: time.Unix(1000, 0), step: 0}
	f := NewFlightRecorder(FlightOptions{Dir: dir, Process: "p", Clock: clk.read})
	trace := TraceID(1)
	for i := 0; i < 2*shedStormThreshold; i++ {
		f.NoteShed(trace)
		trace++
		clk.now = clk.now.Add(shedStormWindow)
	}
	if n := f.DumpCount(); n != 0 {
		t.Fatalf("slow sheds fired a storm (%d dumps)", n)
	}
	for i := 1; i < shedStormThreshold; i++ {
		f.NoteShed(trace)
		trace++
	}
	if n := f.DumpCount(); n != 0 {
		t.Fatalf("%d sheds in one window fired a storm (%d dumps)", shedStormThreshold-1, n)
	}
	f.NoteShed(trace)
	if n := f.DumpCount(); n != 1 {
		t.Fatalf("storm dumps = %d, want 1", n)
	}
	files := bundleFiles(t, dir)
	if len(files) != 1 || !strings.Contains(files[0], "shed_storm") {
		t.Fatalf("bundle files: %v", files)
	}
}

// TestFlightNilRecorder: every hook is a free no-op on nil.
func TestFlightNilRecorder(t *testing.T) {
	var f *FlightRecorder
	f.AttachTracer(NewTracer(8))
	f.AttachRegistry("x", NewRegistry())
	f.AttachExemplars(NewExemplarStore(0))
	f.RecordHealth(HealthRecord{})
	f.CheckP99(10, 1)
	f.NoteQueueFull(1)
	f.NoteShed(1)
	f.NoteRollback(1)
	f.NoteRefitFailure(1)
	if f.DumpCount() != 0 {
		t.Fatal("nil recorder has state")
	}
	l := NewLogger(os.Stderr, slog.LevelError)
	if f.CaptureLogs(l) != l {
		t.Fatal("nil recorder wrapped the logger")
	}
}

// TestFlightTriggerWithoutTrace falls back to the trailing spans and an
// all-zero trace id in the bundle name.
func TestFlightTriggerWithoutTrace(t *testing.T) {
	dir := t.TempDir()
	f, _ := newTestRecorder(t, FlightOptions{Dir: dir})
	tr := NewTracerClock(8, (&fakeClock{now: time.Unix(0, 0), step: time.Millisecond}).read)
	f.AttachTracer(tr)
	_, sp := tr.StartRoot(context.Background(), "request")
	sp.End()
	f.NoteQueueFull(0)
	files := bundleFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("bundle files: %v", files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := ValidateFlightBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.TraceID != FormatTraceID(0) || len(b.Spans) != 1 {
		t.Fatalf("bundle = %+v", b)
	}
}

// TestValidateFlightBundleRejects: unknown fields, bad schema, unknown
// trigger, data after the document, a key in the wrong case and a
// repeated key.
func TestValidateFlightBundleRejects(t *testing.T) {
	base := `"process":"p","trigger":"p99_breach","time":"2026-01-01T00:00:00Z","trace_id":"t0000000000000001","spans":[],"logs":[],"metrics":{},"exemplars":[],"health":[]`
	valid := `{"schema":"srda-flight/v1",` + base + `}`
	if _, err := ValidateFlightBundle([]byte(valid + "\n")); err != nil {
		t.Fatalf("valid bundle rejected: %v", err)
	}
	for _, tc := range []struct{ name, data string }{
		{"trailing garbage", valid + " trailing garbage"},
		{"second document", valid + `{"more":1}`},
		{"unknown field", `{"schema":"srda-flight/v1",` + base + `,"bogus":1}`},
		{"bad schema", `{"schema":"srda-flight/v9",` + base + `}`},
		{"unknown trigger", strings.Replace(`{"schema":"srda-flight/v1",`+base+`}`, "p99_breach", "gremlins", 1)},
		{"missing sections", `{"schema":"srda-flight/v1","process":"p","trigger":"p99_breach","trace_id":"t0000000000000001"}`},
	} {
		if _, err := ValidateFlightBundle([]byte(tc.data)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	keyRefusals(t, func(doc []byte) error { _, err := ValidateFlightBundle(doc); return err },
		`{"Schema":"srda-flight/v1",`+base+`}`,
		`{"schema":"srda-flight/v1",`+base+`,"process":"p"}`)
}
