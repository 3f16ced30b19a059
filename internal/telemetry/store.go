// Package telemetry is the cluster telemetry plane: a bounded
// in-process time-series store over obs.Registry expositions, a
// federation scraper that pulls every replica's /metrics in the router
// role, and a declarative SLO engine running multi-window burn-rate
// alerts over the stored series.
//
// The package is noclock-compliant: it never reads the system clock.
// Every ingest and evaluation takes an explicit time or calls an
// injected obs.Clock, and the background poller consumes a tick channel
// its caller owns — cmd/srdaserve holds the time.Ticker, tests feed
// hand-rolled ticks under a frozen clock, and everything in between is
// deterministic.
package telemetry

import (
	"sort"
	"sync"
	"time"

	"srda/internal/obs"
)

// Point is one stored observation.
type Point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// SeriesInfo is the read-side view of one stored series: identity plus
// its retained points oldest-first.
type SeriesInfo struct {
	Key    string          `json:"key"` // canonical name{labels} identity
	Name   string          `json:"name"`
	Labels []obs.PromLabel `json:"labels,omitempty"`
	Type   string          `json:"type"`
	Points []Point         `json:"points"`
}

// series is one ring of points.  The ring is fixed at store creation so
// memory is bounded: capacity × series, independent of uptime.
type series struct {
	name   string
	labels []obs.PromLabel
	typ    string
	ring   []Point
	next   int
	full   bool
}

func (s *series) push(p Point) {
	s.ring[s.next] = p
	s.next++
	if s.next == len(s.ring) {
		s.next = 0
		s.full = true
	}
}

// points returns the retained points oldest-first.
func (s *series) points() []Point {
	if !s.full {
		return append([]Point(nil), s.ring[:s.next]...)
	}
	out := make([]Point, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	out = append(out, s.ring[:s.next]...)
	return out
}

// Store is a bounded in-process time-series store.  Series appear on
// first ingest and are never dropped (the fleet's series set is small
// and stable); each keeps a fixed ring of points.  Safe for concurrent
// use.
type Store struct {
	mu       sync.Mutex
	capacity int
	series   map[string]*series
	order    []string // first-ingest order, the deterministic iteration order
}

// DefaultPointsPerSeries retains 12 hours at a 15-second sample
// interval — enough history for the slow 6-hour burn-rate window with
// headroom.
const DefaultPointsPerSeries = 2880

// NewStore creates a store retaining pointsPerSeries points per series
// (DefaultPointsPerSeries when <= 0).
func NewStore(pointsPerSeries int) *Store {
	if pointsPerSeries <= 0 {
		pointsPerSeries = DefaultPointsPerSeries
	}
	return &Store{capacity: pointsPerSeries, series: make(map[string]*series)}
}

// Ingest records one sample per series from parsed exposition families,
// all stamped at now.  Extra labels (the federation layer's replica
// tag) are appended by the caller before ingest.
func (st *Store) Ingest(now time.Time, fams []obs.PromFamily) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, f := range fams {
		for _, smp := range f.Samples {
			key := obs.CanonicalSeriesKey(smp.Name, smp.Labels)
			sr, ok := st.series[key]
			if !ok {
				sr = &series{
					name:   smp.Name,
					labels: append([]obs.PromLabel(nil), smp.Labels...),
					typ:    f.Type,
					ring:   make([]Point, st.capacity),
				}
				st.series[key] = sr
				st.order = append(st.order, key)
			}
			sr.push(Point{T: now, V: smp.Value})
		}
	}
}

// Snapshot returns every series in first-ingest order.
func (st *Store) Snapshot() []SeriesInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]SeriesInfo, 0, len(st.order))
	for _, key := range st.order {
		out = append(out, st.viewLocked(key))
	}
	return out
}

// Query returns every series of one metric family name, sorted by
// canonical key so the answer is stable regardless of ingest order.
func (st *Store) Query(metric string) []SeriesInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	var keys []string
	for _, key := range st.order {
		if st.series[key].name == metric {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	out := make([]SeriesInfo, 0, len(keys))
	for _, key := range keys {
		out = append(out, st.viewLocked(key))
	}
	return out
}

// SeriesCount returns how many series the store holds.
func (st *Store) SeriesCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.series)
}

func (st *Store) viewLocked(key string) SeriesInfo {
	sr := st.series[key]
	return SeriesInfo{Key: key, Name: sr.name, Labels: sr.labels, Type: sr.typ, Points: sr.points()}
}

// Label returns the value of the named label on a series view ("" when
// absent).
func (si SeriesInfo) Label(name string) string {
	for _, l := range si.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Latest returns the newest point ({} , false when the series is empty).
func (si SeriesInfo) Latest() (Point, bool) {
	if len(si.Points) == 0 {
		return Point{}, false
	}
	return si.Points[len(si.Points)-1], true
}

// IncreaseOver computes a counter's increase across the window
// (from, to]: the sum of positive deltas between consecutive retained
// points inside the window, which rides through counter resets (a
// restarted replica re-starts at zero; the negative step is dropped
// rather than subtracted).  The point at-or-before `from` seeds the
// baseline so a window that starts mid-history doesn't count history
// before it.
func IncreaseOver(points []Point, from, to time.Time) float64 {
	var sum float64
	havePrev := false
	var prev float64
	for _, p := range points {
		if p.T.After(to) {
			break
		}
		if !p.T.After(from) {
			// Still at or before the window start: slide the baseline.
			prev, havePrev = p.V, true
			continue
		}
		if havePrev {
			if d := p.V - prev; d > 0 {
				sum += d
			}
		}
		prev, havePrev = p.V, true
	}
	return sum
}

// RateOver is IncreaseOver divided by the window length in seconds (0
// on a degenerate window).
func RateOver(points []Point, from, to time.Time) float64 {
	secs := to.Sub(from).Seconds()
	if secs <= 0 {
		return 0
	}
	return IncreaseOver(points, from, to) / secs
}

// FractionOver returns the fraction of points inside (from, to] whose
// value exceeds threshold, and how many points the window held.  NaN
// values never count as over.
func FractionOver(points []Point, threshold float64, from, to time.Time) (float64, int) {
	var n, over int
	for _, p := range points {
		if !p.T.After(from) || p.T.After(to) {
			continue
		}
		n++
		if p.V > threshold {
			over++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(over) / float64(n), n
}

// StartPoller spawns the sampling goroutine: fn runs for every tick
// until stop is closed, then done closes.  The caller owns the tick
// source — a time.Ticker's channel in production, a hand-fed one in
// tests — so this package never touches the wall clock.
func StartPoller(ticks <-chan time.Time, stop <-chan struct{}, fn func(time.Time)) (done <-chan struct{}) {
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		for {
			select {
			case t := <-ticks:
				fn(t)
			case <-stop:
				return
			}
		}
	}()
	return ch
}
