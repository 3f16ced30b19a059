package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"srda/internal/core"
	"srda/internal/jsonref"
	"srda/internal/mat"
	"srda/internal/serve"
)

// typedOnly decorates a backend through its typed Predict only, the way
// benchmark and fault-injection decorators do; embedding Backend hides
// the inner backend's PredictBody.
type typedOnly struct {
	Backend
	calls *atomic.Int64
}

func (b typedOnly) Predict(ctx context.Context, req *serve.PredictRequest) (*serve.PredictResponse, error) {
	b.calls.Add(1)
	return b.Backend.Predict(ctx, req)
}

// httpWorker starts a worker serving m over loopback HTTP.
func httpWorker(tb testing.TB, m *core.Model) *httptest.Server {
	tb.Helper()
	s, err := serve.New(m, serve.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return ts
}

func routeOne(r *Router, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)))
	return rec
}

// TestBodyRelayMatchesTypedPath: the same bodies through a bare
// HTTPBackend (bytes forwarded, reply relayed) and through a typed-only
// decorator get the same status and the same reply, and the decorator's
// Predict sees every forward.  Worker errors come back as the worker's
// own reply.
func TestBodyRelayMatchesTypedPath(t *testing.T) {
	ts := httpWorker(t, trainBlobs(t, 4, 3, 1))
	var calls atomic.Int64
	bare, err := New([]Backend{&HTTPBackend{ReplicaName: "w0", Client: serve.NewClient(ts.URL)}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	typed, err := New([]Backend{typedOnly{&HTTPBackend{ReplicaName: "w0", Client: serve.NewClient(ts.URL)}, &calls}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer typed.Close()
	bodies := []struct {
		body string
		code int
	}{
		{`{"samples":[{"dense":[0,0,0,0]},{"dense":[8,0,0,0]},{"sparse":{"0":16}}]}`, http.StatusOK},
		{`{"dense":[16,0,0,0],"embed":true}`, http.StatusOK},
		{`{"samples":[{"dense":[1,2]}]}`, http.StatusBadRequest},
		{`{"samples":[{"dense":[1,2,3,4]}],"model":"nobody"}`, http.StatusNotFound},
		{`{"samples":[]}`, http.StatusBadRequest},
	}
	for _, tc := range bodies {
		got, want := routeOne(bare, tc.body), routeOne(typed, tc.body)
		if got.Code != tc.code || want.Code != tc.code {
			t.Errorf("%s: bytes path %d, typed path %d, want %d", tc.body, got.Code, want.Code, tc.code)
		}
		if tc.code == http.StatusOK && got.Body.String() != want.Body.String() {
			t.Errorf("%s: bytes path replied %q, typed path %q", tc.body, got.Body.String(), want.Body.String())
		}
		if tc.code != http.StatusOK && !strings.Contains(got.Body.String(), `"error"`) {
			t.Errorf("%s: relayed error reply %q carries no error", tc.body, got.Body.String())
		}
	}
	if n := calls.Load(); n != int64(len(bodies)) {
		t.Errorf("typed decorator saw %d forwards, want %d", n, len(bodies))
	}
	// A truncated body never reaches a backend.
	if rec := routeOne(bare, `{"samples":[`); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: %d %q, want 400", rec.Code, rec.Body.String())
	}
}

// TestRelayClassCountCheck: a replica whose 200 reply does not answer
// every sample is a failed forward, on the byte path as on the typed.
func TestRelayClassCountCheck(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"classes":[0],"model_seq":1}`))
	}))
	defer worker.Close()
	r, err := New([]Backend{&HTTPBackend{ReplicaName: "w0", Client: serve.NewClient(worker.URL)}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rec := routeOne(r, `{"samples":[{"dense":[1]},{"dense":[2]}]}`); rec.Code != http.StatusInternalServerError {
		t.Fatalf("1 class for 2 samples: %d %q, want 500", rec.Code, rec.Body.String())
	}
	if rec := routeOne(r, `{"samples":[{"dense":[1]}]}`); rec.Code != http.StatusOK {
		t.Fatalf("1 class for 1 sample: %d %q, want 200", rec.Code, rec.Body.String())
	}
}

// endless streams a reply that never ends until the client hangs up.
func endless(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	chunk := bytes.Repeat([]byte(" "), 64<<10)
	for {
		if _, err := w.Write(chunk); err != nil {
			return
		}
	}
}

// TestRelayReplyBound: a replica streaming an endless reply gets the
// router's 502 once the reply passes serve.MaxReplyBytes.
func TestRelayReplyBound(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(endless))
	defer worker.Close()
	r, err := New([]Backend{&HTTPBackend{ReplicaName: "w0", Client: serve.NewClient(worker.URL)}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := routeOne(r, `{"samples":[{"dense":[1]}]}`)
	if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), "size limit") {
		t.Fatalf("endless reply: %d %q, want 502 naming the size limit", rec.Code, rec.Body.String())
	}
}

// BenchmarkRouterPredictHTTP sends a 64×784 dense body through
// Router.Handler() to a loopback worker: once over a bare HTTPBackend,
// which forwards the bytes, and once over a typed-only decorator, which
// decodes the body in the router and re-encodes it for the worker.  The
// difference is the router's JSON share of a routed request.
func BenchmarkRouterPredictHTTP(b *testing.B) {
	const rows, n, c = 64, 784, 10
	rng := rand.New(rand.NewSource(1))
	x := mat.NewDense(40*c, n)
	labels := make([]int, x.Rows)
	for i := range labels {
		labels[i] = i % c
		row := x.RowView(i)
		for j := range row {
			row[j] = rng.Float64()
		}
		row[labels[i]] += 4
	}
	m, err := core.FitDense(x, labels, c, core.Options{Alpha: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.SetCentroids(m.TransformDense(x), labels); err != nil {
		b.Fatal(err)
	}
	req := serve.PredictRequest{Samples: make([]serve.Sample, rows)}
	for i := range req.Samples {
		req.Samples[i] = serve.DenseSample(x.RowView(i))
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	ts := httpWorker(b, m)
	var calls atomic.Int64
	for _, tc := range []struct {
		name    string
		backend Backend
	}{
		{"bytes", &HTTPBackend{ReplicaName: "w0", Client: serve.NewClient(ts.URL)}},
		{"typed", typedOnly{&HTTPBackend{ReplicaName: "w0", Client: serve.NewClient(ts.URL)}, &calls}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			r, err := New([]Backend{tc.backend}, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}

// forwarded sums the router's request counter over the statuses a
// forward can end in, per replica.
func forwarded(r *Router, replicas []string) []int64 {
	n := make([]int64, len(replicas))
	for i, name := range replicas {
		for _, code := range []int{200, 400, 404, 429, 500, 502, 503} {
			n[i] += r.mx.requests.Value(name, strconv.Itoa(code))
		}
	}
	return n
}

// TestWhereBadBodiesAreRefused: a body malformed at its top level (a
// repeated, case-variant or unknown key among them) gets the router's
// own 400 naming an offset, before admission, so it calls no backend and
// spends no quota token.  A body whose only syntax error sits inside a
// sample is admitted, spends a token, is forwarded once, and gets the
// worker's own 400 relayed byte for byte.
func TestWhereBadBodiesAreRefused(t *testing.T) {
	now := time.Unix(3000, 0)
	replicas := []string{"worker-0", "worker-1"}
	r, _, workers := colocated(t, 2, Options{QuotaRPS: 1, QuotaBurst: 2, Clock: func() time.Time { return now }})
	const good = `{"model":"tenant-0","samples":[{"dense":[0,0,0,0,0,0,0,0]}]}`
	for _, body := range []string{
		`[{"dense":[0,0,0,0,0,0,0,0]}]`,                                                   // not an object
		`{"model":"tenant-0,"samples":[{"dense":[0]}]}`,                                   // the string runs to the end
		`{model:"tenant-0","samples":[{"dense":[0]}]}`,                                    // bad key
		`{"model" "tenant-0","samples":[{"dense":[0]}]}`,                                  // no colon
		`{"model":0,"samples":[{"dense":[0]}]}`,                                           // "model" not a string
		`{"model":"tenant-0","samples":[{"dense":[0,0,0,0,0,0,0,0]}],"model":"tenant-0"}`, // repeated key
		`{"samples":[{"dense":[0,0,0,0,0,0,0,0]}],"samples":[]}`,                          // repeated key
		`{"Model":"tenant-0","samples":[{"dense":[0,0,0,0,0,0,0,0]}]}`,                    // case-variant key
		`{"model":"tenant-0","samples":[{"dense":[0,0,0,0,0,0,0,0]}]} x`,                  // trailing text
		`{"model":"tenant-0","samples":[{"dense":[0,0,0,0`,                                // truncated
	} {
		before := forwarded(r, replicas)
		rec := routeOne(r, body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad JSON") || !strings.Contains(rec.Body.String(), "at offset") {
			t.Errorf("%s: %d %q, want the router's 400", body, rec.Code, rec.Body.String())
		}
		if after := forwarded(r, replicas); !slices.Equal(after, before) {
			t.Errorf("%s: forwards per replica went from %v to %v", body, before, after)
		}
	}
	// tenant-0 still holds both tokens: the bad sample spends the first.
	const bad = `{"model":"tenant-0","samples":[{"dense":[0,0,0,,0,0,0,0]}]}`
	owner := slices.Index(replicas, r.RouteFor("tenant-0"))
	_, want := workers[owner].PredictBody(context.Background(), nil, []byte(bad))
	before := forwarded(r, replicas)
	rec := routeOne(r, bad)
	if rec.Code != http.StatusBadRequest || rec.Body.String() != string(want) {
		t.Errorf("error inside a sample: %d %q, want the worker's 400 %q", rec.Code, rec.Body.String(), want)
	}
	after := forwarded(r, replicas)
	for i := range replicas {
		if d := after[i] - before[i]; i == owner && d != 1 || i != owner && d != 0 {
			t.Errorf("error inside a sample: %s counted %d forwards", replicas[i], d)
		}
	}
	if n := r.mx.backendErrors.Value(replicas[owner]); n != 0 {
		t.Errorf("backend errors on %s = %d for a client's bad body, want 0", replicas[owner], n)
	}
	if rec := routeOne(r, good); rec.Code != http.StatusOK {
		t.Errorf("second token: %d %q", rec.Code, rec.Body.String())
	}
	if rec := routeOne(r, good); rec.Code != http.StatusTooManyRequests {
		t.Errorf("third request on a burst of 2: %d %q, want 429", rec.Code, rec.Body.String())
	}
}

// stubBody answers every forwarded body with a fixed status, or fails
// as a transport would.
type stubBody struct {
	Backend
	code int
	err  error
}

func (b stubBody) PredictBody(context.Context, []byte) (int, []byte, error) {
	return b.code, []byte(`{"error":"stub"}` + "\n"), b.err
}

// TestBackendErrorsCountReplicaFaults: srdaroute_backend_errors_total
// counts a replica's 5xx replies and transport failures, not the 4xx
// replies a client's own request earns.
func TestBackendErrorsCountReplicaFaults(t *testing.T) {
	const body = `{"model":"tenant-0","samples":[{"dense":[0,0,0,0,0,0,0,0]}]}`
	_, _, workers := colocated(t, 1, Options{})
	local := &LocalBackend{ReplicaName: "worker-0", Server: workers[0]}
	for _, tc := range []struct {
		name string
		b    stubBody
		want int64
	}{
		{"bad request", stubBody{local, http.StatusBadRequest, nil}, 0},
		{"unknown model", stubBody{local, http.StatusNotFound, nil}, 0},
		{"internal error", stubBody{local, http.StatusInternalServerError, nil}, 1},
		{"queue full", stubBody{local, http.StatusServiceUnavailable, nil}, 1},
		{"transport", stubBody{local, 0, errors.New("connection refused")}, 1},
	} {
		r, err := New([]Backend{tc.b}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec := routeOne(r, body)
		if got := r.mx.backendErrors.Value("worker-0"); got != tc.want {
			t.Errorf("%s: reply %d counted %d backend errors, want %d", tc.name, rec.Code, got, tc.want)
		}
		r.Close()
	}
}

// FuzzRoutePredict holds the whole tier to the strict reference
// (jsonref.Decode), since the router's peek checks only a body's top
// level.  Through Router.Handler() over two co-located workers:
//   - every body the reference refuses for PredictRequest gets a 400;
//   - a body that repeats a top-level key reaches no replica: the peek
//     refuses it;
//   - every body it accepts is forwarded exactly once, to the replica
//     RouteFor names for the model it decodes, as the router's
//     per-replica request counter shows.
func FuzzRoutePredict(f *testing.F) {
	f.Add([]byte(`{"samples":[{"dense":[0,0,0,0,0,0,0,8]}],"model":"tenant-1"}`))
	replicas := []string{"worker-0", "worker-1"}
	r, _, _ := colocated(f, 2, Options{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var ref serve.PredictRequest
		refErr := jsonref.Decode(b, &ref)
		before := forwarded(r, replicas)
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(b)))
		after := forwarded(r, replicas)
		if refErr != nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%q: the reference refuses it (%v), the tier answered %d %q", b, refErr, rec.Code, rec.Body.String())
			}
			var rep *jsonref.RepeatError
			if errors.As(refErr, &rep) && rep.Depth == 0 && !slices.Equal(after, before) {
				t.Fatalf("%q: repeated top-level key %q, forwards per replica went from %v to %v", b, rep.Key, before, after)
			}
			return
		}
		tenant := ref.Model
		if tenant == "" {
			tenant = serve.DefaultModelName
		}
		owner := r.RouteFor(tenant)
		for i, name := range replicas {
			if d := after[i] - before[i]; name == owner && d != 1 || name != owner && d != 0 {
				t.Fatalf("%q: model %q belongs on %s, %s counted %d forwards (reply %d %q)",
					b, ref.Model, owner, name, d, rec.Code, rec.Body.String())
			}
		}
	})
}
