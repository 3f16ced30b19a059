package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// PromContentType is the Content-Type of the Prometheus text exposition
// format produced by WritePrometheus.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// metric is one registered instrument; writeProm renders its # HELP and
// # TYPE header followed by its sample lines.
type metric interface {
	metricName() string
	writeProm(w io.Writer)
}

// Registry is an ordered set of named instruments.  Registration order is
// exposition order, which keeps /metrics output deterministic; names must
// be unique within a registry (a duplicate registration panics, since it
// is always a programming error).  All methods are safe for concurrent
// use.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{names: make(map[string]bool)} }

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.metricName()] {
		panic("obs: duplicate metric " + m.metricName())
	}
	r.names[m.metricName()] = true
	r.metrics = append(r.metrics, m)
}

// WritePrometheus renders every registered instrument in registration
// order in the Prometheus text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range ms {
		m.writeProm(w)
	}
}

func promHeader(w io.Writer, name, help, kind string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

// trimFloat renders a bucket bound the way Prometheus clients do.
func trimFloat(v float64) string { return fmt.Sprintf("%g", v) }

// writeLabelPair renders one name="value" pair with text-format label
// escaping (backslash, quote, newline — and only those; %q would escape
// tabs and non-ASCII runes into Go syntax the Prometheus grammar does
// not define, breaking round-trips for such tenant or model names).
func writeLabelPair(sb *strings.Builder, name, value string) {
	sb.WriteString(name)
	sb.WriteString(`="`)
	sb.WriteString(EscapeLabelValue(value))
	sb.WriteByte('"')
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must be non-negative for the counter to stay
// monotonic; callers own that invariant.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) writeProm(w io.Writer) {
	promHeader(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// gaugeFunc samples a point-in-time value at exposition (queue depths,
// sequence numbers — state some other structure already owns).
type gaugeFunc struct {
	name, help string
	fn         func() int64
}

// NewGaugeFunc registers a gauge whose value is sampled by calling fn at
// exposition time.  fn must be safe for concurrent use.
func (r *Registry) NewGaugeFunc(name, help string, fn func() int64) {
	r.register(&gaugeFunc{name: name, help: help, fn: fn})
}

func (g *gaugeFunc) metricName() string { return g.name }

func (g *gaugeFunc) writeProm(w io.Writer) {
	promHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %d\n", g.name, g.fn())
}

// gaugeFloatFunc is gaugeFunc for float-valued samples (latency
// quantiles); it renders with %g like histogram sums, so dyadic values
// stay exact and exposition stays golden-testable.
type gaugeFloatFunc struct {
	name, help string
	fn         func() float64
}

// NewGaugeFloatFunc registers a float gauge whose value is sampled by
// calling fn at exposition time.  fn must be safe for concurrent use.
func (r *Registry) NewGaugeFloatFunc(name, help string, fn func() float64) {
	r.register(&gaugeFloatFunc{name: name, help: help, fn: fn})
}

func (g *gaugeFloatFunc) metricName() string { return g.name }

func (g *gaugeFloatFunc) writeProm(w io.Writer) {
	promHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %g\n", g.name, g.fn())
}

// GaugeSample is one labeled sample returned by a NewGaugeVecFunc
// callback: Value under the registered label names bound to Labels.
type GaugeSample struct {
	Labels []string
	Value  float64
}

// gaugeVecFunc samples a labeled family of float gauges at exposition
// time (per-tenant latency quantiles — state a sketch map already owns).
type gaugeVecFunc struct {
	name, help string
	labels     []string
	fn         func() []GaugeSample
}

// NewGaugeVecFunc registers a labeled float gauge family whose samples
// are produced by calling fn at exposition time.  fn must be safe for
// concurrent use and return samples in a deterministic order (exposition
// order is sample order); values render with %g like the other float
// gauges, so dyadic values stay exact and exposition stays
// golden-testable.
func (r *Registry) NewGaugeVecFunc(name, help string, labels []string, fn func() []GaugeSample) {
	if len(labels) == 0 {
		panic("obs: GaugeVecFunc needs at least one label")
	}
	r.register(&gaugeVecFunc{name: name, help: help, labels: append([]string(nil), labels...), fn: fn})
}

func (g *gaugeVecFunc) metricName() string { return g.name }

func (g *gaugeVecFunc) writeProm(w io.Writer) {
	promHeader(w, g.name, g.help, "gauge")
	var sb strings.Builder
	for _, s := range g.fn() {
		if len(s.Labels) != len(g.labels) {
			continue // malformed sample; drop rather than emit bad labels
		}
		sb.Reset()
		for k, lname := range g.labels {
			if k > 0 {
				sb.WriteByte(',')
			}
			writeLabelPair(&sb, lname, s.Labels[k])
		}
		fmt.Fprintf(w, "%s{%s} %g\n", g.name, sb.String(), s.Value)
	}
}

// CounterVec is a set of counters keyed by a fixed tuple of label values.
// Lookup of an existing label tuple is a read-lock plus one atomic; only
// first-time insertion takes the write lock.
type CounterVec struct {
	name, help string
	labels     []string
	mu         sync.RWMutex
	m          map[string]*vecEntry
}

type vecEntry struct {
	values []string
	c      Counter
}

// NewCounterVec registers and returns a labeled counter family; labels
// are the label names every With call must provide values for.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec needs at least one label")
	}
	v := &CounterVec{name: name, help: help, labels: labels, m: make(map[string]*vecEntry)}
	r.register(v)
	return v
}

// vecKey joins label values on a separator no label value may contain.
func vecKey(values []string) string { return strings.Join(values, "\x00") }

// With returns the child counter for the given label values, creating it
// on first use.  The number of values must match the label names.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := vecKey(values)
	v.mu.RLock()
	e := v.m[key]
	v.mu.RUnlock()
	if e == nil {
		v.mu.Lock()
		if e = v.m[key]; e == nil {
			e = &vecEntry{values: append([]string(nil), values...)}
			e.c.name = v.name
			v.m[key] = e
		}
		v.mu.Unlock()
	}
	return &e.c
}

// Value returns the counter for the given label values without creating
// it; zero when absent.
func (v *CounterVec) Value(values ...string) int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if e := v.m[vecKey(values)]; e != nil {
		return e.c.Value()
	}
	return 0
}

func (v *CounterVec) metricName() string { return v.name }

func (v *CounterVec) writeProm(w io.Writer) {
	promHeader(w, v.name, v.help, "counter")
	v.mu.RLock()
	entries := make([]*vecEntry, 0, len(v.m))
	//srdalint:ignore maprange collect-then-sort: entries are sorted by label values before exposition
	for _, e := range v.m {
		entries = append(entries, e)
	}
	v.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].values, entries[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	var sb strings.Builder
	for _, e := range entries {
		sb.Reset()
		for k, lname := range v.labels {
			if k > 0 {
				sb.WriteByte(',')
			}
			writeLabelPair(&sb, lname, e.values[k])
		}
		fmt.Fprintf(w, "%s{%s} %d\n", v.name, sb.String(), e.c.Value())
	}
}

// Histogram is a fixed-bucket cumulative histogram with wait-free
// observation, rendered with Prometheus le-labeled cumulative buckets
// plus _sum and _count.
type Histogram struct {
	name, help string
	bounds     []float64 // upper bucket bounds, ascending; +Inf implicit
	counts     []atomic.Int64
	sumBits    atomic.Uint64
	count      atomic.Int64
}

// NewHistogram registers and returns a histogram with the given ascending
// upper bucket bounds (+Inf is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) writeProm(w io.Writer) {
	promHeader(w, h.name, h.help, "histogram")
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, trimFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", h.name, h.Sum())
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.count.Load())
}
