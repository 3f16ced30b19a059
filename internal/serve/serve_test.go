package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"srda/internal/core"
	"srda/internal/mat"
	"srda/internal/obs"
)

// trainBlobs fits a centroided model on well-separated Gaussian blobs and
// returns it with one held-out sample per class.
func trainBlobs(t *testing.T, n, c int, seed int64) (*core.Model, *mat.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := 60 * c
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
	probes := mat.NewDense(c, n)
	for k := 0; k < c; k++ {
		row := probes.RowView(k)
		for j := range row {
			row[j] = 0.1 * rng.NormFloat64()
		}
		row[0] += 8 * float64(k)
	}
	return model, probes
}

func newTestServer(t *testing.T, model *core.Model, opts Options) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s, err := New(model, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts, NewClient(ts.URL)
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestNewRejectsBadModels(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil model accepted")
	}
	model, _ := trainBlobs(t, 8, 3, 1)
	model.Centroids = nil
	if _, err := New(model, Options{}); err == nil {
		t.Fatal("centroid-less model accepted")
	}
}

func TestEndToEndPredict(t *testing.T) {
	model, probes := trainBlobs(t, 12, 4, 2)
	_, _, client := newTestServer(t, model, Options{})
	ctx := ctxT(t)

	// Dense, one sample per class.
	for k := 0; k < probes.Rows; k++ {
		got, err := client.PredictOne(ctx, DenseSample(probes.RowView(k)))
		if err != nil {
			t.Fatal(err)
		}
		if want := model.PredictVec(probes.RowView(k)); got != want {
			t.Fatalf("class %d: got %d, model says %d", k, got, want)
		}
	}

	// Multi-sample mixed dense + sparse in one request.
	sp := map[int]float64{}
	for j, v := range probes.RowView(1) {
		if v != 0 {
			sp[j] = v
		}
	}
	classes, embs, err := client.PredictEmbed(ctx, DenseSample(probes.RowView(0)), SparseSample(sp))
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 || len(embs) != 2 {
		t.Fatalf("got %d classes, %d embeddings", len(classes), len(embs))
	}
	if classes[0] != model.PredictVec(probes.RowView(0)) || classes[1] != model.PredictVec(probes.RowView(1)) {
		t.Fatalf("mixed batch misclassified: %v", classes)
	}
	wantEmb := model.TransformVec(probes.RowView(1), nil)
	for d := range wantEmb {
		if diff := embs[1][d] - wantEmb[d]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("embedding differs at dim %d: %g vs %g", d, embs[1][d], wantEmb[d])
		}
	}
}

func TestHealthz(t *testing.T) {
	model, _ := trainBlobs(t, 10, 3, 3)
	_, _, client := newTestServer(t, model, Options{})
	h, err := client.Health(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Features != 10 || h.Classes != 3 || h.Dim != 2 || h.ModelSeq != 1 {
		t.Fatalf("unexpected health: %+v", h)
	}
}

func TestBadRequests(t *testing.T) {
	model, probes := trainBlobs(t, 10, 3, 4)
	_, ts, _ := newTestServer(t, model, Options{})
	samples := func(k int) string {
		return `{"samples":[` + strings.TrimSuffix(strings.Repeat(`{"sparse":{"0":1}},`, k), ",") + `]}`
	}
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name, body string
		want       int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"no samples", "{}", http.StatusBadRequest},
		{"wrong dense width", `{"dense":[1,2,3]}`, http.StatusBadRequest},
		{"sparse index out of range", `{"sparse":{"99":1}}`, http.StatusBadRequest},
		{"negative sparse index", `{"sparse":{"-1":1}}`, http.StatusBadRequest},
		{"both dense and sparse", `{"samples":[{"dense":[1,1,1,1,1,1,1,1,1,1],"sparse":{"0":1}}]}`, http.StatusBadRequest},
		{"samples at the cap", samples(maxRequestSamples), http.StatusOK},
		{"too many samples", samples(maxRequestSamples + 1), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if got := post(tc.body); got != tc.want {
			t.Errorf("%s: got http %d, want %d", tc.name, got, tc.want)
		}
	}
	// Shorthand single-sample form works.
	body, err := json.Marshal(map[string]any{"dense": probes.RowView(2)})
	if err != nil {
		t.Fatal(err)
	}
	if got := post(string(body)); got != http.StatusOK {
		t.Fatalf("shorthand form: http %d", got)
	}
	// Wrong methods.
	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: http %d", resp.StatusCode)
	}
}

// predictOne is a single-dense-sample request for row k of probes.
func predictOne(probes *mat.Dense, k int) *PredictRequest {
	return &PredictRequest{Samples: []Sample{DenseSample(probes.RowView(k))}}
}

// queueBeforeDispatch builds a server whose dispatcher is not running,
// admits reqs in order, then starts the dispatcher, so every request is
// queued while no worker can take a batch.  It returns the requests'
// pendings once all are answered.
func queueBeforeDispatch(t *testing.T, model *core.Model, opts Options, reqs ...*PredictRequest) (*Server, []*pending) {
	t.Helper()
	s, err := newServer(model, opts)
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]*pending, len(reqs))
	for i, req := range reqs {
		if ps[i], err = s.buildPending(req); err != nil {
			t.Fatal(err)
		}
		if err := s.enqueue(ps[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.startDispatch()
	t.Cleanup(func() {
		if err := s.Close(context.Background()); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	for i, p := range ps {
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d never answered", i)
		}
		if p.err != nil {
			t.Fatalf("request %d: %v", i, p.err)
		}
	}
	return s, ps
}

// TestMicroBatchCoalescing pins the coalescing rule: four single-sample
// requests queued while no worker can take a batch are answered by
// exactly one inference batch of 4.
func TestMicroBatchCoalescing(t *testing.T) {
	model, probes := trainBlobs(t, 10, 4, 5)
	reqs := make([]*PredictRequest, 4)
	for k := range reqs {
		reqs[k] = predictOne(probes, k)
	}
	s, ps := queueBeforeDispatch(t, model, Options{MaxBatch: 4, Workers: 2}, reqs...)
	for k, p := range ps {
		if want := model.PredictVec(probes.RowView(k)); p.classes[0] != want {
			t.Fatalf("request %d: got class %d, want %d", k, p.classes[0], want)
		}
	}
	if b := s.metrics.batches.Value(); b != 1 {
		t.Fatalf("expected exactly 1 inference batch, dispatcher ran %d", b)
	}
	if n := s.metrics.samples.Value(); n != 4 {
		t.Fatalf("expected 4 samples predicted, got %d", n)
	}
}

// TestCoalescingCarriesWholeRequests pins that requests are never split:
// with MaxBatch 4, queued requests of 3, 2 and 1 samples run as [3] and
// [2, 1] — the 2-sample request does not fit and opens the next batch.
func TestCoalescingCarriesWholeRequests(t *testing.T) {
	model, probes := trainBlobs(t, 10, 3, 5)
	multi := func(k int) *PredictRequest {
		req := &PredictRequest{}
		for i := 0; i < k; i++ {
			req.Samples = append(req.Samples, DenseSample(probes.RowView(i%probes.Rows)))
		}
		return req
	}
	s, ps := queueBeforeDispatch(t, model, Options{MaxBatch: 4}, multi(3), multi(2), multi(1))
	for _, p := range ps {
		for i, c := range p.classes {
			if want := model.PredictVec(probes.RowView(i % probes.Rows)); c != want {
				t.Fatalf("sample %d: got class %d, want %d", i, c, want)
			}
		}
	}
	if b, n := s.metrics.batches.Value(), s.metrics.samples.Value(); b != 2 || n != 6 {
		t.Fatalf("got %d batches of %d samples, want 2 batches of 6", b, n)
	}
}

// TestOversizedRequestOneBatch pins that a request larger than MaxBatch
// is answered as one batch rather than split.
func TestOversizedRequestOneBatch(t *testing.T) {
	model, probes := trainBlobs(t, 10, 3, 5)
	s, _, _ := newTestServer(t, model, Options{MaxBatch: 4})
	req := &PredictRequest{}
	for i := 0; i < 10; i++ {
		req.Samples = append(req.Samples, DenseSample(probes.RowView(i%probes.Rows)))
	}
	resp, err := s.Predict(ctxT(t), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range resp.Classes {
		if want := model.PredictVec(probes.RowView(i % probes.Rows)); c != want {
			t.Fatalf("sample %d: got class %d, want %d", i, c, want)
		}
	}
	if b, n := s.metrics.batches.Value(), s.metrics.samples.Value(); b != 1 || n != 10 {
		t.Fatalf("got %d batches of %d samples, want 1 batch of 10", b, n)
	}
}

// TestIdleWorkerTakesLoneSample pins that an idle worker dispatches a
// lone sample at once: 100 sequential single-sample predicts with default
// options finish well inside what even a 1ms hold per request would cost.
func TestIdleWorkerTakesLoneSample(t *testing.T) {
	model, probes := trainBlobs(t, 10, 3, 5)
	s, _, _ := newTestServer(t, model, Options{})
	ctx := ctxT(t)
	begin := time.Now()
	for i := 0; i < 100; i++ {
		if _, err := s.Predict(ctx, predictOne(probes, i%probes.Rows)); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(begin); el >= 100*time.Millisecond {
		t.Fatalf("100 sequential predicts took %v, want < 100ms", el)
	}
}

// TestNonFinitePredictRejected pins that NaN and ±Inf feature values are
// refused with a RequestError naming the sample and feature, on the
// in-process transport the router's LocalBackend uses.
func TestNonFinitePredictRejected(t *testing.T) {
	model, probes := trainBlobs(t, 10, 3, 4)
	s, _, _ := newTestServer(t, model, Options{})
	ctx := ctxT(t)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		dense := append([]float64(nil), probes.RowView(0)...)
		dense[3] = bad
		for name, smp := range map[string]Sample{
			"dense":  {Dense: dense},
			"sparse": {Sparse: map[int]float64{0: 1, 3: bad}},
		} {
			req := &PredictRequest{Samples: []Sample{DenseSample(probes.RowView(1)), smp}}
			_, err := s.Predict(ctx, req)
			var reqErr *RequestError
			if !errors.As(err, &reqErr) || StatusCode(err) != http.StatusBadRequest {
				t.Fatalf("%s %v: err = %v, want a 400 RequestError", name, bad, err)
			}
			if !strings.Contains(err.Error(), "sample 1") || !strings.Contains(err.Error(), "feature 3") {
				t.Errorf("%s %v: error %q does not name sample 1, feature 3", name, bad, err)
			}
		}
	}
	if n := s.metrics.samples.Value(); n != 0 {
		t.Fatalf("%d samples reached a batch", n)
	}
}

func TestHotReloadSwapAndWatch(t *testing.T) {
	modelA, probes := trainBlobs(t, 10, 3, 6)
	// Model B: same shapes, but classes relabeled so predictions flip.
	rng := rand.New(rand.NewSource(7))
	m := 180
	x := mat.NewDense(m, 10)
	labels := make([]int, m)
	for i := 0; i < m; i++ {
		labels[i] = (i%3 + 1) % 3 // rotated labels relative to blob position
		row := x.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		row[0] += 8 * float64(i%3)
	}
	modelB, err := core.FitDense(x, labels, 3, core.Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := modelB.SetCentroids(modelB.TransformDense(x), labels); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "model.bin")
	if err := modelA.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s, _, client := newTestServer(t, modelA, Options{})
	ctx := ctxT(t)

	if _, err := s.Swap(nil); err == nil {
		t.Fatal("Swap(nil) accepted")
	}

	// Direct swap.
	seq, err := s.Swap(modelB)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 || s.ModelSeq() != 2 {
		t.Fatalf("seq after swap = %d", seq)
	}
	if got, _ := client.PredictOne(ctx, DenseSample(probes.RowView(0))); got != modelB.PredictVec(probes.RowView(0)) {
		t.Fatal("predictions not served from swapped model")
	}

	// File watch: overwrite the model file, expect an automatic reload.
	stopWatch := s.WatchFile(path, 5*time.Millisecond)
	defer stopWatch()
	time.Sleep(20 * time.Millisecond) // ensure a fresh mtime on coarse filesystems
	if err := modelA.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := client.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.ModelSeq >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher never reloaded the rewritten model file")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, _ := client.PredictOne(ctx, DenseSample(probes.RowView(1))); got != modelA.PredictVec(probes.RowView(1)) {
		t.Fatal("predictions not served from watched-in model")
	}
	if s.metrics.reloads.Value() < 2 {
		t.Fatalf("reloads counter = %d", s.metrics.reloads.Value())
	}
}

func TestReloadFromFileErrors(t *testing.T) {
	model, _ := trainBlobs(t, 10, 3, 8)
	s, _, _ := newTestServer(t, model, Options{})
	if _, err := s.ReloadFromFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("reload from missing file succeeded")
	}
	if s.metrics.reloadErrors.Value() != 1 {
		t.Fatalf("reloadErrors = %d", s.metrics.reloadErrors.Value())
	}
	if s.ModelSeq() != 1 {
		t.Fatal("failed reload bumped the model seq")
	}
}

// TestQueueFullRejects drives enqueue with no dispatcher attached, so
// admission is deterministic: a request is admitted or refused whole, and
// both the depth gauge and the reject counter count samples.
func TestQueueFullRejects(t *testing.T) {
	model, probes := trainBlobs(t, 10, 3, 4)
	s, err := newServer(model, Options{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	build := func(k int) *pending {
		req := &PredictRequest{}
		for i := 0; i < k; i++ {
			req.Samples = append(req.Samples, DenseSample(probes.RowView(0)))
		}
		p, err := s.buildPending(req)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := s.enqueue(build(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.enqueue(build(2)); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := s.metrics.queueRejects.Value(); got != 2 {
		t.Fatalf("queueRejects = %d, want 2", got)
	}
	if len(s.queue) != 1 {
		t.Fatalf("queued %d requests, want 1", len(s.queue))
	}
	var sb strings.Builder
	s.metrics.writeProm(&sb)
	if !strings.Contains(sb.String(), "\nsrdaserve_queue_depth 3\n") {
		t.Fatalf("queue depth gauge should count 3 queued samples\n---\n%s", sb.String())
	}
	if h := s.HealthSnapshot(); h.QueueDepth != 3 {
		t.Fatalf("Health.QueueDepth = %d, want 3", h.QueueDepth)
	}
}

// TestModelShapeConflict exercises the mid-flight reload guard: a request
// validated against one model must fail cleanly if a swapped model has a
// different feature count by the time its batch runs.
func TestModelShapeConflict(t *testing.T) {
	modelA, probes := trainBlobs(t, 10, 3, 9)
	s, _, _ := newTestServer(t, modelA, Options{})
	p, err := s.buildPending(predictOne(probes, 0))
	if err != nil {
		t.Fatal(err)
	}
	modelB, _ := trainBlobs(t, 6, 3, 10) // different feature count
	if _, err := s.Swap(modelB); err != nil {
		t.Fatal(err)
	}
	s.runBatch([]*pending{p})
	select {
	case <-p.done:
	case <-time.After(time.Second):
		t.Fatal("pending never settled")
	}
	if p.err != ErrModelShape {
		t.Fatalf("err = %v, want ErrModelShape", p.err)
	}
}

func TestMetricsExposition(t *testing.T) {
	model, probes := trainBlobs(t, 10, 3, 11)
	ex := obs.NewExemplarStore(0)
	_, _, client := newTestServer(t, model, Options{Exemplars: ex})
	ctx := ctxT(t)
	if _, err := client.Predict(ctx, DenseSample(probes.RowView(0)), DenseSample(probes.RowView(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Health(ctx); err != nil {
		t.Fatal(err)
	}
	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`srdaserve_requests_total{endpoint="/v1/predict",code="200"} 1`,
		`srdaserve_requests_total{endpoint="/healthz",code="200"} 1`,
		`srdaserve_samples_total 2`,
		`srdaserve_batches_total`,
		`srdaserve_batch_size_bucket{le="2"}`,
		`srdaserve_model_seq 1`,
		`srdaserve_queue_depth 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n---\n%s", want, text)
		}
	}
	if strings.Contains(text, "srdaserve_request_latency_p50 NaN") {
		t.Errorf("the predict latency never reached the sketch\n---\n%s", text)
	}
	if snap := ex.Snapshot(); len(snap) != 1 || snap[0].Metric != LatencySketchName {
		t.Errorf("exemplars = %+v, want the predict's trace under %s", snap, LatencySketchName)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	model, probes := trainBlobs(t, 10, 3, 12)
	s, err := New(model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := ctxT(t)
	if _, err := client.PredictOne(ctx, DenseSample(probes.RowView(0))); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(cctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(cctx); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	if _, err := client.PredictOne(ctx, DenseSample(probes.RowView(0))); err == nil {
		t.Fatal("predict after Close succeeded")
	}
}

// drainedCtx is a cancelled context whose Done channel Close obtains
// only once every dispatcher has exited, so Close meets a finished drain
// and an expired context at the same time.
type drainedCtx struct {
	context.Context
	s *Server
}

func (c drainedCtx) Done() <-chan struct{} {
	<-c.s.drained
	return c.Context.Done()
}

// TestCloseAfterDrainReturnsNil: a drain that has finished is not
// reported incomplete because the context has expired as well.  Each
// run's Close sees both at once; a random pick between them fails a run
// in two.
func TestCloseAfterDrainReturnsNil(t *testing.T) {
	model, _ := trainBlobs(t, 10, 3, 12)
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	for run := 0; run < 10; run++ {
		s, err := New(model, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(drainedCtx{expired, s}); err != nil {
			t.Fatalf("run %d: Close after every dispatcher exited: %v", run, err)
		}
	}
}
