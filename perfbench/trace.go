package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"srda/internal/router"
	"srda/internal/serve"
)

// span is one timed call into a layer, opened by the benchmark's own code.
// Spans of one request or probe share Req.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Req     int64   `json:"req"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// recorder keeps the spans of a traced run in memory until the end.  A nil
// recorder records nothing, so untraced code paths call it freely.
type recorder struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	rec *recorder
	s   span
}

func (r *recorder) start(name string, parent, req int64) openSpan {
	if r == nil {
		return openSpan{}
	}
	id := r.ids.Add(1)
	if req == 0 {
		req = id
	}
	return openSpan{rec: r, s: span{ID: id, Parent: parent, Req: req, Name: name,
		StartUS: float64(time.Since(r.origin).Nanoseconds()) / 1e3}}
}

func (o openSpan) end() {
	if o.rec == nil {
		return
	}
	o.s.EndUS = float64(time.Since(o.rec.origin).Nanoseconds()) / 1e3
	o.rec.mu.Lock()
	o.rec.spans = append(o.rec.spans, o.s)
	o.rec.mu.Unlock()
}

// newReq returns a fresh request id.
func (r *recorder) newReq() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// durations returns the durations in seconds of every span named name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, (s.EndUS-s.StartUS)/1e6)
		}
	}
	return out
}

// selfTimes returns, for each span named name, its duration minus the
// durations of its children named child, in seconds.
func (r *recorder) selfTimes(name, child string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int64]float64{}
	for _, s := range r.spans {
		if s.Name == child {
			kids[s.Parent] += s.EndUS - s.StartUS
		}
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, (s.EndUS-s.StartUS-kids[s.ID])/1e6)
		}
	}
	return out
}

// probe times n calls of fn as spans named name under one probe request
// and returns their median in seconds.
func (r *recorder) probe(name string, n int, fn func()) float64 {
	req := r.newReq()
	root := r.start("probe."+name, 0, req)
	defer root.end()
	var d []float64
	for i := 0; i < n; i++ {
		d = append(d, r.timed(name, root.s.ID, req, fn))
	}
	return median(d)
}

// probePair times a and b alternately, n calls each, so a drift in the
// machine's speed moves both medians alike; the caller reports their
// difference.
func (r *recorder) probePair(nameA string, a func(), nameB string, b func(), n int) (medA, medB float64) {
	req := r.newReq()
	root := r.start("probe."+nameA+"+"+nameB, 0, req)
	defer root.end()
	var da, db []float64
	for i := 0; i < n; i++ {
		da = append(da, r.timed(nameA, root.s.ID, req, a))
		db = append(db, r.timed(nameB, root.s.ID, req, b))
	}
	return median(da), median(db)
}

// timed runs fn as one span and returns its duration in seconds.
func (r *recorder) timed(name string, parent, req int64, fn func()) float64 {
	sp := r.start(name, parent, req)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	sp.end()
	return d
}

// write dumps the spans as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Request ids cross process boundaries the benchmark owns in these
// headers: the load generator sets them, the transport under the router's
// backend copies them from the context, and the handler wrappers read
// them.
const (
	hdrReq    = "X-Perfbench-Req"
	hdrParent = "X-Perfbench-Parent"
)

type spanKey struct{}

type spanRef struct{ req, id int64 }

func withSpan(ctx context.Context, req, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{req, id})
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

func setIDs(h http.Header, req, parent int64) {
	h.Set(hdrReq, strconv.FormatInt(req, 10))
	h.Set(hdrParent, strconv.FormatInt(parent, 10))
}

// handler wraps h so every request it serves is a span named name plus
// the request path, e.g. "worker/v1/predict".
func (r *recorder) handler(name string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		// Absent or malformed headers leave the span a root of its own.
		req, _ := strconv.ParseInt(q.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(q.Header.Get(hdrParent), 10, 64)
		sp := r.start(name+q.URL.Path, parent, req)
		h.ServeHTTP(w, q.WithContext(withSpan(q.Context(), sp.s.Req, sp.s.ID)))
		sp.end()
	})
}

// tracedBackend is a router.Backend decorator that times each forward.
type tracedBackend struct {
	router.Backend
	rec *recorder
}

func (b tracedBackend) Predict(ctx context.Context, req *serve.PredictRequest) (*serve.PredictResponse, error) {
	ref, _ := spanFrom(ctx)
	sp := b.rec.start("router.forward", ref.id, ref.req)
	resp, err := b.Backend.Predict(withSpan(ctx, sp.s.Req, sp.s.ID), req)
	sp.end()
	return resp, err
}

// idTransport stamps the context's span onto outgoing requests, so the
// worker's handler span joins the routed request's tree.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(q *http.Request) (*http.Response, error) {
	if ref, ok := spanFrom(q.Context()); ok {
		q = q.Clone(q.Context())
		setIDs(q.Header, ref.req, ref.id)
	}
	return t.base.RoundTrip(q)
}
