package router

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"srda/internal/core"
	"srda/internal/mat"
	"srda/internal/registry"
	"srda/internal/serve"
)

// trainBlobs fits a centroided model on well-separated Gaussian blobs.
func trainBlobs(t testing.TB, n, c int, seed int64) *core.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := 40 * c
	x := mat.NewDense(m, n)
	labels := make([]int, m)
	for i := 0; i < m; i++ {
		labels[i] = i % c
		row := x.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		row[0] += 8 * float64(labels[i])
	}
	model, err := core.FitDense(x, labels, c, core.Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.SetCentroids(model.TransformDense(x), labels); err != nil {
		t.Fatal(err)
	}
	return model
}

func probe(n, class int) []float64 {
	x := make([]float64, n)
	x[0] = 8 * float64(class)
	return x
}

func TestRingDeterministicAndStable(t *testing.T) {
	members := []string{"worker-0", "worker-1", "worker-2"}
	r1 := buildRing(2008, members, 64)
	r2 := buildRing(2008, []string{"worker-2", "worker-0", "worker-1"}, 64)
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant-%d", i)
	}
	owners := make(map[string]string, len(keys))
	hit := make(map[string]int)
	for _, k := range keys {
		owners[k] = r1.lookup(2008, k)
		if owners[k] == "" {
			t.Fatalf("key %s unowned", k)
		}
		if got := r2.lookup(2008, k); got != owners[k] {
			t.Fatalf("member order changed placement of %s: %s vs %s", k, owners[k], got)
		}
		hit[owners[k]]++
	}
	for _, m := range members {
		if hit[m] == 0 {
			t.Fatalf("replica %s owns no keys out of %d", m, len(keys))
		}
	}
	// Removing worker-1 must move only worker-1's keys.
	r3 := buildRing(2008, []string{"worker-0", "worker-2"}, 64)
	for _, k := range keys {
		got := r3.lookup(2008, k)
		if owners[k] != "worker-1" && got != owners[k] {
			t.Fatalf("key %s moved from %s to %s though its owner stayed", k, owners[k], got)
		}
		if owners[k] == "worker-1" && got == "worker-1" {
			t.Fatalf("key %s still routed to removed worker-1", k)
		}
	}
	// A different seed is a different placement function.
	r4 := buildRing(7, members, 64)
	moved := 0
	for _, k := range keys {
		if r4.lookup(7, k) != owners[k] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("changing the seed moved no keys")
	}
}

func TestQuotaBuckets(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	q := newQuotas(10, 2, clock)
	for i := 0; i < 2; i++ {
		if !q.allow("a") {
			t.Fatalf("request %d within burst denied", i)
		}
	}
	if q.allow("a") {
		t.Fatal("request past burst admitted")
	}
	if !q.allow("b") {
		t.Fatal("fresh tenant shares a's bucket")
	}
	now = now.Add(100 * time.Millisecond) // 10 rps → one token back
	if !q.allow("a") {
		t.Fatal("refilled token denied")
	}
	if q.allow("a") {
		t.Fatal("second request after one-token refill admitted")
	}
	unlimited := newQuotas(0, 0, clock)
	for i := 0; i < 100; i++ {
		if !unlimited.allow("a") {
			t.Fatal("disabled quotas denied a request")
		}
	}
}

// colocated builds the arrangement the sharding tier is designed around:
// one shared registry, nWorkers in-process serve.Servers over it, and a
// router in front.  Tenants tenant-0..tenant-2 are published with
// distinct models.  Each worker sits behind a failingBackend, so setDown
// can take it off the ring.
func colocated(t testing.TB, nWorkers int, opts Options) (*Router, *registry.Registry, []*serve.Server) {
	t.Helper()
	reg := registry.New(registry.Options{})
	for i := 0; i < 3; i++ {
		if _, err := reg.Publish(fmt.Sprintf("tenant-%d", i), trainBlobs(t, 8, 3, int64(50+i))); err != nil {
			t.Fatal(err)
		}
	}
	workers := make([]*serve.Server, nWorkers)
	backends := make([]Backend, nWorkers)
	for i := range workers {
		s, err := serve.New(nil, serve.Options{Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Close(ctx)
		})
		workers[i] = s
		backends[i] = &failingBackend{inner: &LocalBackend{ReplicaName: fmt.Sprintf("worker-%d", i), Server: s}}
	}
	r, err := New(backends, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, reg, workers
}

// TestColocatedRoutingQuotasAndDrain is the tier's acceptance test: a
// router over two co-located workers serving three tenants.  It pins
// deterministic consistent-hash routing across independently built
// routers, exact per-tenant quota rejection counts, and that a replica
// failing its health checks leaves the ring and its tenants reroute
// without a single failed request.  Run under -race via make race.
func TestColocatedRoutingQuotasAndDrain(t *testing.T) {
	now := time.Unix(2000, 0)
	var clockMu sync.Mutex
	clock := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now }
	const burst = 4
	opts := Options{QuotaRPS: 100, QuotaBurst: burst, Clock: clock}
	r, _, _ := colocated(t, 2, opts)
	r2, _, _ := colocated(t, 2, opts)

	tenants := []string{"tenant-0", "tenant-1", "tenant-2"}
	owners := make(map[string]string, len(tenants))
	for _, tn := range tenants {
		owners[tn] = r.RouteFor(tn)
		if owners[tn] == "" {
			t.Fatalf("%s unrouted", tn)
		}
		if got := r2.RouteFor(tn); got != owners[tn] {
			t.Fatalf("routing not deterministic: %s → %s vs %s", tn, owners[tn], got)
		}
	}
	distinct := map[string]bool{}
	for _, o := range owners {
		distinct[o] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all three tenants hashed onto one replica: %v", owners)
	}

	// Each tenant fires 3×burst concurrent requests against a frozen
	// clock: exactly burst are admitted, the rest shed with 429.
	const perTenant = 3 * burst
	ctx := context.Background()
	var wg sync.WaitGroup
	type counts struct{ ok, quota, other int }
	got := make([]counts, len(tenants))
	for ti, tn := range tenants {
		for k := 0; k < perTenant; k++ {
			wg.Add(1)
			go func(ti int, tn string, class int) {
				defer wg.Done()
				req := &serve.PredictRequest{
					Model:   tn,
					Samples: []serve.Sample{{Dense: probe(8, class)}},
				}
				resp, err := r.Predict(ctx, req)
				clockMu.Lock()
				defer clockMu.Unlock()
				switch {
				case err == nil && resp.Model == tn && len(resp.Classes) == 1:
					got[ti].ok++
				case errors.Is(err, serve.ErrShed) && serve.StatusCode(err) == http.StatusTooManyRequests:
					got[ti].quota++
				default:
					t.Errorf("%s: unexpected result resp=%v err=%v", tn, resp, err)
					got[ti].other++
				}
			}(ti, tn, k%3)
		}
	}
	wg.Wait()
	for ti, tn := range tenants {
		if got[ti].ok != burst || got[ti].quota != perTenant-burst {
			t.Fatalf("%s: ok=%d quota=%d, want %d/%d", tn, got[ti].ok, got[ti].quota, burst, perTenant-burst)
		}
		if shed := r.mx.shed.Value("quota", tn); shed != int64(perTenant-burst) {
			t.Fatalf("srdaroute_shed_total{quota,%s} = %d, want %d", tn, shed, perTenant-burst)
		}
	}

	// The replica owning tenant-0 fails its health checks and leaves the
	// ring.  Its tenants rehash onto the survivor; tenants owned
	// elsewhere must not move; no request fails.
	victim := owners["tenant-0"]
	setDown(t, r, true, victim)
	if members := r.Ring(); len(members) != 1 || members[0] == victim {
		t.Fatalf("ring after removal = %v", members)
	}
	for _, tn := range tenants {
		newOwner := r.RouteFor(tn)
		if newOwner == victim {
			t.Fatalf("%s still routed to removed %s", tn, victim)
		}
		if owners[tn] != victim && newOwner != owners[tn] {
			t.Fatalf("%s moved from %s to %s though its owner was not removed",
				tn, owners[tn], newOwner)
		}
	}
	clockMu.Lock()
	now = now.Add(time.Minute) // refill every bucket
	clockMu.Unlock()
	for _, tn := range tenants {
		resp, err := r.Predict(ctx, &serve.PredictRequest{
			Model:   tn,
			Samples: []serve.Sample{{Dense: probe(8, 1)}},
		})
		if err != nil {
			t.Fatalf("%s failed with %s off the ring: %v", tn, victim, err)
		}
		if resp.Classes[0] != 1 {
			t.Fatalf("%s predicted class %d, want 1", tn, resp.Classes[0])
		}
	}
	// One healthy sweep restores the original deterministic placement.
	setDown(t, r, false, victim)
	for _, tn := range tenants {
		if got := r.RouteFor(tn); got != owners[tn] {
			t.Fatalf("%s placement after recovery = %s, want %s", tn, got, owners[tn])
		}
	}
}

func TestUnknownTenantAndShedTyping(t *testing.T) {
	r, _, _ := colocated(t, 2, Options{})
	ctx := context.Background()
	_, err := r.Predict(ctx, &serve.PredictRequest{
		Model:   "tenant-404",
		Samples: []serve.Sample{{Dense: probe(8, 0)}},
	})
	if serve.StatusCode(err) != http.StatusNotFound {
		t.Fatalf("unknown tenant: %v (status %d)", err, serve.StatusCode(err))
	}
	if errors.Is(err, serve.ErrShed) {
		t.Fatal("a 404 must not read as a shed")
	}
	// Every replica fails its health checks: the ring empties and
	// requests shed as no_backend.
	setDown(t, r, true, "worker-0", "worker-1")
	_, err = r.Predict(ctx, &serve.PredictRequest{
		Model:   "tenant-0",
		Samples: []serve.Sample{{Dense: probe(8, 0)}},
	})
	if !errors.Is(err, serve.ErrShed) || serve.StatusCode(err) != http.StatusServiceUnavailable {
		t.Fatalf("empty ring: %v (status %d)", err, serve.StatusCode(err))
	}
	var st *serve.StatusError
	if !errors.As(err, &st) || st.RetryAfter <= 0 {
		t.Fatalf("shed without Retry-After hint: %v", err)
	}
	if r.mx.shed.Value("no_backend", "tenant-0") != 1 {
		t.Fatal("no_backend shed not counted")
	}
	if r.HealthSnapshot().Status != "degraded" {
		t.Fatal("empty ring reports ok")
	}
}

// failingBackend fails its health checks while down is set and
// forwards everything else, predict bodies included, to the replica it
// wraps.
type failingBackend struct {
	inner Backend
	down  atomic.Bool
}

func (b *failingBackend) Name() string { return b.inner.Name() }
func (b *failingBackend) Predict(ctx context.Context, req *serve.PredictRequest) (*serve.PredictResponse, error) {
	return b.inner.Predict(ctx, req)
}
func (b *failingBackend) PredictBody(ctx context.Context, body []byte) (int, []byte, error) {
	return b.inner.(BodyBackend).PredictBody(ctx, body)
}
func (b *failingBackend) Health(ctx context.Context) (*serve.Health, error) {
	if b.down.Load() {
		return nil, errors.New("connection refused")
	}
	return b.inner.Health(ctx)
}

// setDown switches the named replicas' failingBackends down (or up) and
// sweeps health as often as it takes the ring to follow: healthFailures
// failed sweeps remove a replica, one healthy sweep restores it.
func setDown(t testing.TB, r *Router, down bool, names ...string) {
	t.Helper()
	r.mu.RLock()
	for _, name := range names {
		fb, ok := r.replicas[name].backend.(*failingBackend)
		if !ok {
			r.mu.RUnlock()
			t.Fatalf("replica %s is not a failingBackend", name)
		}
		fb.down.Store(down)
	}
	r.mu.RUnlock()
	sweeps := 1
	if down {
		sweeps = healthFailures
	}
	for k := 0; k < sweeps; k++ {
		r.CheckHealth(context.Background())
	}
}

func TestHealthDrivenMembership(t *testing.T) {
	reg := registry.New(registry.Options{})
	if _, err := reg.Publish("tenant-0", trainBlobs(t, 8, 3, 60)); err != nil {
		t.Fatal(err)
	}
	var workers []*serve.Server
	var backends []Backend
	var victim *failingBackend
	for i := 0; i < 2; i++ {
		s, err := serve.New(nil, serve.Options{Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Close(ctx)
		})
		workers = append(workers, s)
		b := Backend(&LocalBackend{ReplicaName: fmt.Sprintf("worker-%d", i), Server: s})
		if i == 0 {
			victim = &failingBackend{inner: b}
			b = victim
		}
		backends = append(backends, b)
	}
	r, err := New(backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ctx := context.Background()
	r.CheckHealth(ctx)
	if len(r.Ring()) != 2 {
		t.Fatalf("ring = %v before failures", r.Ring())
	}
	victim.down.Store(true)
	for k := 1; k < healthFailures; k++ {
		r.CheckHealth(ctx) // failure k of healthFailures: still on the ring
		if len(r.Ring()) != 2 {
			t.Fatalf("%d failed checks removed the replica", k)
		}
	}
	r.CheckHealth(ctx) // failure healthFailures: off the ring
	if members := r.Ring(); len(members) != 1 || members[0] != "worker-1" {
		t.Fatalf("ring after failures = %v", members)
	}
	// All tenants route to the survivor; predictions still succeed.
	resp, err := r.Predict(ctx, &serve.PredictRequest{
		Model:   "tenant-0",
		Samples: []serve.Sample{{Dense: probe(8, 2)}},
	})
	if err != nil || resp.Classes[0] != 2 {
		t.Fatalf("predict through survivor: resp=%v err=%v", resp, err)
	}
	victim.down.Store(false)
	r.CheckHealth(ctx) // one success restores membership
	if len(r.Ring()) != 2 {
		t.Fatalf("ring after recovery = %v", r.Ring())
	}
	_ = workers
}

func TestOverloadShedding(t *testing.T) {
	r, _, _ := colocated(t, 1, Options{ShedQueue: 10})
	// Seed the replica's health snapshot with a deep queue.
	r.mu.Lock()
	r.replicas["worker-0"].health = serve.Health{QueueDepth: 11}
	r.mu.Unlock()
	_, err := r.Predict(context.Background(), &serve.PredictRequest{
		Model:   "tenant-0",
		Samples: []serve.Sample{{Dense: probe(8, 0)}},
	})
	if !errors.Is(err, serve.ErrShed) || serve.StatusCode(err) != http.StatusServiceUnavailable {
		t.Fatalf("overloaded replica admitted: %v", err)
	}
	if r.mx.shed.Value("overload", "tenant-0") != 1 {
		t.Fatal("overload shed not counted")
	}
	// A fresh health sweep clears the snapshot and admits again.
	r.CheckHealth(context.Background())
	if _, err := r.Predict(context.Background(), &serve.PredictRequest{
		Model:   "tenant-0",
		Samples: []serve.Sample{{Dense: probe(8, 0)}},
	}); err != nil {
		t.Fatalf("recovered replica still shed: %v", err)
	}
}

// TestPredictBodyCap posts a body one byte over serve.DefaultMaxBodyBytes
// to the router and to a worker: both must stop reading at the cap and
// answer 400 rather than buffer the whole body.
func TestPredictBodyCap(t *testing.T) {
	r, _, workers := colocated(t, 1, Options{})
	body := strings.Repeat(" ", serve.DefaultMaxBodyBytes+1)
	for _, tc := range []struct {
		name string
		h    http.Handler
	}{
		{"router", r.Handler()},
		{"worker", workers[0].Handler()},
	} {
		rec := httptest.NewRecorder()
		tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
			t.Errorf("%s: oversized body got %d %q, want 400 naming the size cap", tc.name, rec.Code, rec.Body.String())
		}
	}
}

// TestRetryAfterAgreesAcrossTier: every shed reply of the tier carries
// serve.RetryAfterSeconds, and the client parses it back.  The worker's
// own queue-full 503 (a 2-sample request against QueueDepth 1 is
// refused whole), that 503 forwarded by the router, the router's 429
// quota shed, and its 503 no_backend shed all agree.
func TestRetryAfterAgreesAcrossTier(t *testing.T) {
	worker, err := serve.New(trainBlobs(t, 8, 3, 70), serve.Options{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = worker.Close(context.Background()) })
	ws := httptest.NewServer(worker.Handler())
	t.Cleanup(ws.Close)
	var clockMu sync.Mutex
	now := time.Unix(3000, 0)
	clock := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now }
	r, err := New([]Backend{&failingBackend{inner: &HTTPBackend{ReplicaName: "worker-0", Client: serve.NewClient(ws.URL)}}},
		Options{QuotaRPS: 1, QuotaBurst: 1, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	rs := httptest.NewServer(r.Handler())
	t.Cleanup(rs.Close)

	two := []serve.Sample{{Dense: probe(8, 0)}, {Dense: probe(8, 1)}}
	wantHeader := fmt.Sprint(serve.RetryAfterSeconds)
	wantParsed := serve.RetryAfterSeconds * time.Second
	check := func(what, url string, code int) {
		t.Helper()
		_, err := serve.NewClient(url).Predict(context.Background(), two...)
		var st *serve.StatusError
		if !errors.As(err, &st) || st.Code != code {
			t.Fatalf("%s: err = %v, want http %d", what, err, code)
		}
		if !errors.Is(err, serve.ErrShed) || st.RetryAfter != wantParsed {
			t.Fatalf("%s: shed %v with RetryAfter %v, want %v", what, errors.Is(err, serve.ErrShed), st.RetryAfter, wantParsed)
		}
	}
	header := func(url string) string {
		t.Helper()
		resp, err := http.Post(url+"/v1/predict", "application/json",
			strings.NewReader(`{"samples":[{"dense":[0,0,0,0,0,0,0,0]},{"dense":[0,0,0,0,0,0,0,0]}]}`))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		return resp.Header.Get("Retry-After")
	}

	if got := header(ws.URL); got != wantHeader {
		t.Fatalf("worker queue-full Retry-After = %q, want %q", got, wantHeader)
	}
	check("worker queue full", ws.URL, http.StatusServiceUnavailable)
	check("forwarded queue full", rs.URL, http.StatusServiceUnavailable) // spends the tenant's one token
	check("quota", rs.URL, http.StatusTooManyRequests)
	if got := header(rs.URL); got != wantHeader {
		t.Fatalf("router quota Retry-After = %q, want %q", got, wantHeader)
	}
	setDown(t, r, true, "worker-0")
	clockMu.Lock()
	now = now.Add(time.Minute) // refill, so the empty ring is what sheds
	clockMu.Unlock()
	check("no backend", rs.URL, http.StatusServiceUnavailable)
	if got := r.mx.shed.Value("no_backend", serve.DefaultModelName); got != 1 {
		t.Fatalf("no_backend sheds = %d, want 1", got)
	}
}
