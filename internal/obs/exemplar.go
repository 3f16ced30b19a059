package obs

// Exemplars link metrics back to traces: when a latency histogram or
// quantile sketch records an outlier, the store keeps the TraceID of the
// observation so a p99 spike on /metrics points at a concrete trace in
// the Chrome-trace export instead of an anonymous aggregate.  Two kinds
// are tracked per metric over a sliding observation window:
//
//	window_max  — the slowest observation in the current/last window
//	slo_breach  — the first observation over the SLO in its window
//
// Observations without a trace (TraceID 0: tracing disabled, or an
// unsampled path) are skipped, so instrumented call-sites record
// unconditionally.  Snapshots are deterministic: metrics sort by name and
// every exemplar carries the store-wide observation sequence number it
// was captured at.

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// Exemplar is one trace-linked outlier observation.
type Exemplar struct {
	Metric  string  `json:"metric"`
	Kind    string  `json:"kind"` // "window_max" or "slo_breach"
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"` // FormatTraceID form
	Seq     uint64  `json:"seq"`      // store-wide observation index
}

// DefaultExemplarWindow is the observations per exemplar window.
const DefaultExemplarWindow = 256

// ExemplarStore tracks trace-linked outliers for any number of metrics.
// All methods are safe for concurrent use; a nil *ExemplarStore is a
// valid no-op, matching the rest of obs.
type ExemplarStore struct {
	slo float64 // seconds; <= 0 disables slo_breach tracking

	mu  sync.Mutex
	seq uint64
	m   map[string]*exemplarState
}

type exemplarState struct {
	count   int      // observations in the open window
	cur     Exemplar // max of the open window
	hasCur  bool
	last    Exemplar // max of the last completed window
	hasLast bool

	breach     Exemplar // first over-SLO observation of its window
	hasBreach  bool
	breachOpen bool // the open window already has its "first"
}

// NewExemplarStore creates a store whose windows hold
// DefaultExemplarWindow observations, with an SLO threshold in the
// observed unit (<= 0 disables slo_breach exemplars).
func NewExemplarStore(slo float64) *ExemplarStore {
	return &ExemplarStore{slo: slo, m: make(map[string]*exemplarState)}
}

// Observe records one observation of metric with the trace it belongs
// to.  Trace 0 (no active trace) and a nil store are no-ops.
func (e *ExemplarStore) Observe(metric string, v float64, trace TraceID) {
	if e == nil || trace == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	s := e.m[metric]
	if s == nil {
		s = &exemplarState{}
		e.m[metric] = s
	}
	s.count++
	if !s.hasCur || v > s.cur.Value {
		s.cur = Exemplar{Metric: metric, Value: v, TraceID: FormatTraceID(trace), Seq: e.seq}
		s.hasCur = true
	}
	if e.slo > 0 && v > e.slo && !s.breachOpen {
		s.breach = Exemplar{Metric: metric, Value: v, TraceID: FormatTraceID(trace), Seq: e.seq}
		s.hasBreach = true
		s.breachOpen = true
	}
	if s.count >= DefaultExemplarWindow {
		s.last, s.hasLast = s.cur, s.hasCur
		s.hasCur = false
		s.count = 0
		s.breachOpen = false // the next over-SLO observation is a new "first"
	}
}

// Snapshot returns the current exemplars sorted by (metric, kind), the
// slowest-in-window first.  Nil receiver returns nil.
func (e *ExemplarStore) Snapshot() []Exemplar {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.m))
	//srdalint:ignore maprange collect-then-sort: names are sorted before building the snapshot
	for name := range e.m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Exemplar, 0, 2*len(names))
	for _, name := range names {
		s := e.m[name]
		max, ok := s.cur, s.hasCur
		if s.hasLast && (!ok || s.last.Value > max.Value) {
			max, ok = s.last, true
		}
		if ok {
			max.Kind = "window_max"
			out = append(out, max)
		}
		if s.hasBreach {
			b := s.breach
			b.Kind = "slo_breach"
			out = append(out, b)
		}
	}
	return out
}

// Handler serves the snapshot as a JSON array (the /debug/exemplars
// endpoint).  A nil store serves an empty array.
func (e *ExemplarStore) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := e.Snapshot()
		if snap == nil {
			snap = []Exemplar{}
		}
		data, err := json.Marshal(snap)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(append(data, '\n')) // best-effort: the client owns the socket
	})
}

// AttachExemplars links the histogram to an exemplar store under its own
// metric name; ObserveTraced then records outliers there.
func (h *Histogram) AttachExemplars(store *ExemplarStore) {
	h.exemplars = store
}

// ObserveTraced records one value like Observe and forwards it with its
// trace to the attached exemplar store (no-op without one).
func (h *Histogram) ObserveTraced(v float64, trace TraceID) {
	h.Observe(v)
	h.exemplars.Observe(h.name, v, trace)
}
