package obs

// Always-on flight recorder.  Each process keeps bounded rings of recent
// spans (the request tracer's own ring), log records (captured via
// CaptureLogs), metric snapshots, and numeric-health records from the
// fit/refit path.  Trigger rules — p99 over SLO, queue-full rejections,
// a registry rollback, a shed storm, a refit validation failure — dump
// one correlated bundle (flight-<trigger>-<traceid>.json) atomically for
// postmortems, rate-limited by a per-trigger cooldown so a sustained
// breach produces one bundle, not a bundle per request.
//
// The nil discipline matches the rest of obs: a nil *FlightRecorder is a
// free no-op receiver, so serving, routing, and training call-sites hook
// in unconditionally.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// FlightSchema is the bundle schema identifier; ValidateFlightBundle
// rejects bundles claiming any other version.
const FlightSchema = "srda-flight/v1"

// flightTriggers are the recognized trigger rule names.
var flightTriggers = map[string]bool{
	"p99_breach":        true,
	"queue_full":        true,
	"shed_storm":        true,
	"registry_rollback": true,
	"refit_validation":  true,
	"slo_burn":          true,
}

// The recorder's fixed rule and ring sizes.
const (
	flightCooldown       = 30 * time.Second // min spacing between dumps per trigger
	flightLogCapacity    = 256              // log ring size
	flightHealthCapacity = 32               // numeric-health ring size
	shedStormThreshold   = 16               // sheds within shedStormWindow that make a storm
	shedStormWindow      = time.Second
)

// FlightOptions configures a recorder.
type FlightOptions struct {
	Dir     string  // bundle directory; "" records rings but never dumps
	Process string  // label stamped into bundles
	Clock   Clock   // injectable for deterministic tests
	P99SLO  float64 // seconds; CheckP99 fires above this (<= 0 disables)
	Logger  *Logger // dump failures are reported here
}

// LogRecord is one captured log line in the flight ring.
type LogRecord struct {
	Time    time.Time         `json:"time"`
	Level   string            `json:"level"`
	Message string            `json:"msg"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// HealthRecord is the numeric health of one fit/refit: the conditioning
// of the normal equations, the holdout comparison that gated publishing,
// and the outcome.
type HealthRecord struct {
	Time            time.Time `json:"time"`
	Model           string    `json:"model"`
	Trigger         string    `json:"trigger"`
	Version         uint64    `json:"version,omitempty"`
	CondEstimate    float64   `json:"cond_estimate,omitempty"`
	HoldoutAccuracy float64   `json:"holdout_accuracy,omitempty"`
	PrevAccuracy    float64   `json:"prev_accuracy,omitempty"`
	HoldoutDelta    float64   `json:"holdout_delta,omitempty"`
	RolledBack      bool      `json:"rolled_back,omitempty"`
	Err             string    `json:"error,omitempty"`
}

// FlightSpan is one span in a bundle, timestamps flattened to absolute
// microseconds so bundles are self-contained.
type FlightSpan struct {
	TraceID  string `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id"`
	Name     string `json:"name"`
	StartUS  int64  `json:"start_us"`
	DurUS    int64  `json:"dur_us"`
}

// FlightBundle is the dumped artifact: everything the process knew about
// the moments before the trigger, correlated by the breaching trace.
type FlightBundle struct {
	Schema    string            `json:"schema"`
	Process   string            `json:"process"`
	Trigger   string            `json:"trigger"`
	Time      time.Time         `json:"time"`
	TraceID   string            `json:"trace_id"` // all-zero when the trigger had none
	Value     float64           `json:"value,omitempty"`
	Threshold float64           `json:"threshold,omitempty"`
	Spans     []FlightSpan      `json:"spans"`
	Logs      []LogRecord       `json:"logs"`
	Metrics   map[string]string `json:"metrics"` // registry name -> prom exposition
	Exemplars []Exemplar        `json:"exemplars"`
	Health    []HealthRecord    `json:"health"`
}

// recentSpanFallback is how many trailing spans a bundle keeps when the
// trigger carries no trace (or the trace's spans were already evicted).
const recentSpanFallback = 64

// FlightRecorder owns the rings and trigger rules for one process.
type FlightRecorder struct {
	opts  FlightOptions
	clock Clock
	dumps atomic.Int64

	tracer    *Tracer
	exemplars *ExemplarStore

	mu         sync.Mutex
	regs       []flightReg
	logs       []LogRecord // ring
	logNext    int
	logFull    bool
	health     []HealthRecord // ring
	healthNext int
	healthFull bool
	lastDump   map[string]time.Time
	shedTimes  []time.Time
}

type flightReg struct {
	name string
	reg  *Registry
}

// NewFlightRecorder creates a recorder; a nil return never happens, but
// callers that want flight recording off simply keep a nil pointer.
func NewFlightRecorder(opts FlightOptions) *FlightRecorder {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return &FlightRecorder{
		opts:     opts,
		clock:    opts.Clock,
		logs:     make([]LogRecord, flightLogCapacity),
		health:   make([]HealthRecord, flightHealthCapacity),
		lastDump: make(map[string]time.Time),
	}
}

// AttachTracer points the recorder at the span ring bundles draw from.
func (f *FlightRecorder) AttachTracer(t *Tracer) {
	if f != nil {
		f.tracer = t
	}
}

// AttachExemplars points the recorder at the exemplar store to include
// in bundles.
func (f *FlightRecorder) AttachExemplars(e *ExemplarStore) {
	if f != nil {
		f.exemplars = e
	}
}

// AttachRegistry adds a named registry whose exposition is snapshotted
// into every bundle (serve metrics, router metrics, the default
// registry...).  Attachment order is bundle map insertion order only;
// the JSON object sorts by name.
func (f *FlightRecorder) AttachRegistry(name string, reg *Registry) {
	if f == nil || reg == nil {
		return
	}
	f.mu.Lock()
	f.regs = append(f.regs, flightReg{name: name, reg: reg})
	f.mu.Unlock()
}

// CaptureLogs returns a logger equivalent to l whose records also land
// in the flight ring — even records below the sink's level, so bundles
// carry debug context a quiet production sink dropped.  Nil recorder or
// logger passes l through unchanged.
func (f *FlightRecorder) CaptureLogs(l *Logger) *Logger {
	if f == nil || l == nil {
		return l
	}
	return &Logger{h: &teeHandler{rec: f, inner: l.h}, lvl: l.lvl, clock: l.clock, smp: l.smp}
}

// RecordHealth appends one fit/refit health record to the ring.
func (f *FlightRecorder) RecordHealth(h HealthRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.health[f.healthNext] = h
	f.healthNext++
	if f.healthNext == len(f.health) {
		f.healthNext = 0
		f.healthFull = true
	}
	f.mu.Unlock()
}

// DumpCount returns how many bundles have been written (0 on nil).
func (f *FlightRecorder) DumpCount() int64 {
	if f == nil {
		return 0
	}
	return f.dumps.Load()
}

// CheckP99 fires the p99_breach trigger when the observed p99 latency
// (seconds) exceeds the configured SLO; trace identifies the request
// whose observation pushed it over.
func (f *FlightRecorder) CheckP99(p99 float64, trace TraceID) {
	if f == nil || f.opts.P99SLO <= 0 || !(p99 > f.opts.P99SLO) {
		return
	}
	f.trigger("p99_breach", trace, p99, f.opts.P99SLO)
}

// NoteQueueFull fires the queue_full trigger for a rejected request.
func (f *FlightRecorder) NoteQueueFull(trace TraceID) {
	if f == nil {
		return
	}
	f.trigger("queue_full", trace, 0, 0)
}

// NoteShed records one shed decision; shedStormThreshold sheds inside
// shedStormWindow fire the shed_storm trigger.
func (f *FlightRecorder) NoteShed(trace TraceID) {
	if f == nil {
		return
	}
	now := f.clock()
	f.mu.Lock()
	cutoff := now.Add(-shedStormWindow)
	kept := f.shedTimes[:0]
	for _, t := range f.shedTimes {
		if t.After(cutoff) {
			kept = append(kept, t)
		}
	}
	f.shedTimes = append(kept, now)
	count := len(f.shedTimes)
	f.mu.Unlock()
	if count >= shedStormThreshold {
		f.trigger("shed_storm", trace, float64(count), shedStormThreshold)
	}
}

// NoteRollback fires the registry_rollback trigger after a published
// model was rolled back (holdout regression or validation hook).
func (f *FlightRecorder) NoteRollback(trace TraceID) {
	if f == nil {
		return
	}
	f.trigger("registry_rollback", trace, 0, 0)
}

// NoteSLOBurn fires the slo_burn trigger when an SLO burn-rate alert
// transitions to firing; value is the observed burn rate and threshold
// the window's firing threshold.  SLO evaluations are interval-driven,
// not request-driven, so there is no breaching trace — bundles fall
// back to the trailing span window.
func (f *FlightRecorder) NoteSLOBurn(burn, threshold float64) {
	if f == nil {
		return
	}
	f.trigger("slo_burn", 0, burn, threshold)
}

// NoteRefitFailure fires the refit_validation trigger when a refit could
// not produce a publishable model at all.
func (f *FlightRecorder) NoteRefitFailure(trace TraceID) {
	if f == nil {
		return
	}
	f.trigger("refit_validation", trace, 0, 0)
}

// trigger applies the cooldown and dumps a bundle.
func (f *FlightRecorder) trigger(name string, trace TraceID, value, threshold float64) {
	now := f.clock()
	f.mu.Lock()
	if last, ok := f.lastDump[name]; ok && now.Sub(last) < flightCooldown {
		f.mu.Unlock()
		return
	}
	f.lastDump[name] = now
	f.mu.Unlock()
	if f.opts.Dir == "" {
		return
	}
	if err := f.dump(name, trace, value, threshold, now); err != nil {
		f.opts.Logger.Error("flight recorder dump failed", "trigger", name, "err", err.Error())
		return
	}
	f.dumps.Add(1)
}

// dump assembles and atomically writes one bundle.
func (f *FlightRecorder) dump(trigger string, trace TraceID, value, threshold float64, now time.Time) error {
	id := FormatTraceID(trace)
	bundle := FlightBundle{
		Schema:    FlightSchema,
		Process:   f.opts.Process,
		Trigger:   trigger,
		Time:      now,
		TraceID:   id,
		Value:     value,
		Threshold: threshold,
		Spans:     f.bundleSpans(trace),
		Metrics:   map[string]string{},
	}
	f.mu.Lock()
	bundle.Logs = ringSlice(f.logs, f.logNext, f.logFull)
	bundle.Health = ringSlice(f.health, f.healthNext, f.healthFull)
	regs := append([]flightReg(nil), f.regs...)
	f.mu.Unlock()
	for _, r := range regs {
		var buf bytes.Buffer
		r.reg.WritePrometheus(&buf)
		bundle.Metrics[r.name] = buf.String()
	}
	bundle.Exemplars = f.exemplars.Snapshot()
	if bundle.Logs == nil {
		bundle.Logs = []LogRecord{}
	}
	if bundle.Health == nil {
		bundle.Health = []HealthRecord{}
	}
	if bundle.Exemplars == nil {
		bundle.Exemplars = []Exemplar{}
	}
	data, err := json.MarshalIndent(bundle, "", "  ")
	if err != nil {
		return err
	}
	final := filepath.Join(f.opts.Dir, fmt.Sprintf("flight-%s-%s.json", trigger, id))
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

// bundleSpans selects the spans for a bundle: the breaching trace's
// spans when it has any still in the ring, the trailing
// recentSpanFallback spans otherwise.
func (f *FlightRecorder) bundleSpans(trace TraceID) []FlightSpan {
	spans := f.tracer.Snapshot()
	var picked []SpanRecord
	if trace != 0 {
		for _, sp := range spans {
			if sp.Trace == trace {
				picked = append(picked, sp)
			}
		}
	}
	if picked == nil {
		lo := len(spans) - recentSpanFallback
		if lo < 0 {
			lo = 0
		}
		picked = spans[lo:]
	}
	sortSpans(picked)
	out := make([]FlightSpan, 0, len(picked))
	for _, sp := range picked {
		out = append(out, FlightSpan{
			TraceID:  FormatTraceID(sp.Trace),
			SpanID:   uint64(sp.ID),
			ParentID: uint64(sp.Parent),
			Name:     sp.Name,
			StartUS:  sp.Start.UnixMicro(),
			DurUS:    sp.Duration.Microseconds(),
		})
	}
	return out
}

// ringSlice copies a ring's contents oldest-first.
func ringSlice[T any](ring []T, next int, full bool) []T {
	if !full {
		return append([]T(nil), ring[:next]...)
	}
	out := make([]T, 0, len(ring))
	out = append(out, ring[next:]...)
	out = append(out, ring[:next]...)
	return out
}

// recordLog appends one captured record to the log ring.
func (f *FlightRecorder) recordLog(rec LogRecord) {
	f.mu.Lock()
	f.logs[f.logNext] = rec
	f.logNext++
	if f.logNext == len(f.logs) {
		f.logNext = 0
		f.logFull = true
	}
	f.mu.Unlock()
}

// teeHandler is a slog.Handler that records every record into the flight
// ring and forwards to the wrapped handler when its level admits it.
// Enabled always reports true so below-sink-level records still reach
// the ring; Handle re-checks the inner handler before forwarding.
type teeHandler struct {
	rec    *FlightRecorder
	inner  slog.Handler
	attrs  []slog.Attr // WithAttrs accumulation, group prefix applied
	prefix string      // open WithGroup prefix ("g1.g2.")
}

func (h *teeHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *teeHandler) Handle(ctx context.Context, r slog.Record) error {
	attrs := make(map[string]string, len(h.attrs)+r.NumAttrs())
	for _, a := range h.attrs {
		attrs[a.Key] = a.Value.String()
	}
	r.Attrs(func(a slog.Attr) bool {
		attrs[h.prefix+a.Key] = a.Value.String()
		return true
	})
	if len(attrs) == 0 {
		attrs = nil
	}
	h.rec.recordLog(LogRecord{Time: r.Time, Level: r.Level.String(), Message: r.Message, Attrs: attrs})
	if h.inner.Enabled(ctx, r.Level) {
		return h.inner.Handle(ctx, r)
	}
	return nil
}

func (h *teeHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	merged := append(append([]slog.Attr(nil), h.attrs...), prefixAttrs(h.prefix, attrs)...)
	return &teeHandler{rec: h.rec, inner: h.inner.WithAttrs(attrs), attrs: merged, prefix: h.prefix}
}

func (h *teeHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	return &teeHandler{rec: h.rec, inner: h.inner.WithGroup(name), attrs: h.attrs, prefix: h.prefix + name + "."}
}

func prefixAttrs(prefix string, attrs []slog.Attr) []slog.Attr {
	if prefix == "" {
		return attrs
	}
	out := make([]slog.Attr, len(attrs))
	for i, a := range attrs {
		out[i] = slog.Attr{Key: prefix + a.Key, Value: a.Value}
	}
	return out
}

// ValidateFlightBundle parses data as a FlightBundle and checks the
// schema; it is the contract the trace-smoke CI step holds bundle files
// to.
func ValidateFlightBundle(data []byte) (*FlightBundle, error) {
	var b FlightBundle
	if err := DecodeStrict(data, &b); err != nil {
		return nil, fmt.Errorf("obs: flight bundle is not valid JSON for the schema: %w", err)
	}
	if b.Schema != FlightSchema {
		return nil, fmt.Errorf("obs: flight bundle schema %q, want %q", b.Schema, FlightSchema)
	}
	if !flightTriggers[b.Trigger] {
		return nil, fmt.Errorf("obs: unknown flight trigger %q", b.Trigger)
	}
	if b.Process == "" {
		return nil, fmt.Errorf("obs: flight bundle missing process")
	}
	if len(b.TraceID) != 17 || b.TraceID[0] != 't' {
		return nil, fmt.Errorf("obs: malformed bundle trace id %q", b.TraceID)
	}
	if b.Spans == nil || b.Logs == nil || b.Metrics == nil {
		return nil, fmt.Errorf("obs: flight bundle missing spans/logs/metrics sections")
	}
	return &b, nil
}
