package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"srda"
	"srda/internal/core"
	"srda/internal/dataset"
	"srda/internal/mat"
	"srda/internal/obs"
	"srda/internal/online"
	"srda/internal/registry"
	"srda/internal/router"
	"srda/internal/serve"
)

// Serving load shapes.  The load comes from one client goroutine at a time.
const (
	// serve-bulk: one closed-loop client, 64-sample requests.  A second
	// client kept both vCPUs busy; in one 10-run sweep a slow minute of the
	// host then raised three runs' p90 by up to 65%.
	bulkRows     = 64
	bulkRequests = 32 // distinct bodies
	bulkClients  = 1
	bulkWarmup   = 4
	bulkThinkMax = 16 * time.Millisecond

	// serve-online: slices of an open loop of single-sample predicts at
	// onlineRate, well below the ~500/s the tier completes closed-loop,
	// alternating with slices of one closed-loop feeder of 16-sample
	// observe batches.
	onlineRate    = 150.0
	onlineBatch   = 16
	onlineStream  = 2048 // distinct stream rows the feeder cycles through
	onlinePredict = 2048 // distinct single-sample predict bodies
	// Refitting once per pass over the stream makes every live model the
	// fit of whole copies of the stream, so its held-out error does not
	// depend on how far the feeder got.
	refitEvery   = onlineStream
	onlineWarmup = 20
	onlineSlice  = time.Second

	probeReps = 100
	// rssWindow is the length of the windows peak_rss_mb takes the median
	// of on the serving workloads.
	rssWindow = 500 * time.Millisecond
)

// tierSpec says how to build a router → worker tier.
type tierSpec struct {
	modelPath string
	online    bool
	rec       *recorder // non-nil: wrap the boundaries the benchmark owns
	wrap      func(router.Backend) router.Backend
}

// tier is a worker and a router over HTTPBackend, each on its own loopback
// listener, built from the public constructors with default options.
type tier struct {
	worker    *serve.Server
	router    *router.Router
	trainer   *online.StreamTrainer // serve-online only
	workerURL string
	routerURL string
	servers   []*http.Server
	wg        sync.WaitGroup
	transport *http.Transport // router → worker
}

// startTier loads the model file, publishes it, and starts the listeners.
func startTier(spec tierSpec) (t *tier, err error) {
	m, err := srda.LoadModelFile(spec.modelPath)
	if err != nil {
		return nil, err
	}
	t = &tier{transport: &http.Transport{MaxIdleConnsPerHost: bulkClients}}
	defer func() {
		if err != nil {
			_ = t.close() // the start error is the one to report
			t = nil
		}
	}()
	if spec.online {
		reg := registry.New(registry.Options{})
		if _, err = reg.Publish(serve.DefaultModelName, m); err != nil {
			return t, err
		}
		t.trainer, err = online.NewStreamTrainer(online.Config{
			NumFeatures: m.W.Rows, NumClasses: m.NumClasses, Alpha: alpha,
			Policy: online.RefitPolicy{MinSamples: refitEvery}, Registry: reg,
		})
		if err != nil {
			return t, err
		}
		t.worker, err = serve.New(nil, serve.Options{Registry: reg, Trainer: t.trainer})
	} else {
		t.worker, err = serve.New(m, serve.Options{})
	}
	if err != nil {
		return t, err
	}
	if t.workerURL, err = t.listen(spec.rec.handler("worker", t.worker.Handler())); err != nil {
		return t, err
	}
	var rt http.RoundTripper = t.transport
	if spec.rec != nil {
		rt = idTransport{t.transport}
	}
	var b router.Backend = &router.HTTPBackend{ReplicaName: "worker-0",
		Client: &serve.Client{BaseURL: t.workerURL, HTTPClient: &http.Client{Transport: rt}}}
	if spec.rec != nil {
		b = tracedBackend{b, spec.rec}
	}
	if spec.wrap != nil {
		b = spec.wrap(b)
	}
	if t.router, err = router.New([]router.Backend{b}, router.Options{}); err != nil {
		return t, err
	}
	t.routerURL, err = t.listen(spec.rec.handler("router", t.router.Handler()))
	return t, err
}

func (t *tier) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	t.servers = append(t.servers, hs)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts the listeners down router first, then the dispatcher and
// the trainer, and waits for every goroutine the tier started.
func (t *tier) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for i := len(t.servers) - 1; i >= 0; i-- {
		errs = append(errs, t.servers[i].Shutdown(ctx))
	}
	t.wg.Wait()
	if t.router != nil {
		t.router.Close()
	}
	if t.worker != nil {
		errs = append(errs, t.worker.Close(ctx))
	}
	if t.trainer != nil {
		t.trainer.Close()
	}
	t.transport.CloseIdleConnections()
	return errors.Join(errs...)
}

// setupTier builds the tier setupReps times and keeps the last one;
// setup_s is the median of load, publish, listen and warm-up.
func setupTier(spec tierSpec, reps int, warm func(*tier) error) (*tier, float64, error) {
	var times []float64
	var t *tier
	for i := 0; i < reps; i++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, 0, err
			}
		}
		var err error
		t0 := time.Now()
		if t, err = startTier(spec); err != nil {
			return nil, 0, err
		}
		if err := warm(t); err != nil {
			_ = t.close() // the warm-up error is the one to report
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return t, median(times), nil
}

// loadClient is the benchmark's HTTP client; it posts pre-encoded bodies,
// so request encoding is not charged to the program.
type loadClient struct {
	transport *http.Transport
	client    *http.Client
}

func newLoadClient() *loadClient {
	tr := &http.Transport{MaxIdleConnsPerHost: bulkClients}
	return &loadClient{transport: tr, client: &http.Client{Transport: tr}}
}

func (c *loadClient) close() { c.transport.CloseIdleConnections() }

// post sends body and decodes a 200 reply into out.  Under a recorder the
// request is a "client" span whose ids travel in headers.
func (c *loadClient) post(url string, body []byte, rec *recorder, out any) error {
	req := rec.newReq()
	sp := rec.start("client", 0, req)
	defer sp.end()
	q, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	q.Header.Set("Content-Type", "application/json")
	if rec != nil {
		setIDs(q.Header, req, sp.s.ID)
	}
	resp, err := c.client.Do(q)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // read to the end below
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort detail for the failure note
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// servingInputs holds what both serving workloads are generated from: the
// model file, trained on the seed's training rows before any clock
// starts, and the seed's held-out rows.
type servingInputs struct {
	modelPath string
	model     *core.Model
	test      *dataset.Dataset
}

func newServingInputs(cfg config) (*servingInputs, error) {
	train, test, err := denseSplit(cfg.seed)
	if err != nil {
		return nil, err
	}
	m, err := srda.Fit(train.Dense, train.Labels, denseClasses, srda.Options{Alpha: alpha})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.inputDir, "model.srda")
	if err := srda.SaveModelFile(m, path); err != nil {
		return nil, err
	}
	return &servingInputs{modelPath: path, model: m, test: test}, nil
}

// rows copies held-out rows [lo, hi) into a matrix.
func (in *servingInputs) rows(lo, hi int) *mat.Dense {
	x := mat.NewDense(hi-lo, in.test.Dense.Cols)
	for i := lo; i < hi; i++ {
		copy(x.RowView(i-lo), in.test.Dense.RowView(i))
	}
	return x
}

func predictRequest(x *mat.Dense) *serve.PredictRequest {
	req := &serve.PredictRequest{Samples: make([]serve.Sample, x.Rows)}
	for i := range req.Samples {
		req.Samples[i] = serve.DenseSample(x.RowView(i))
	}
	return req
}

// heldOutError scores the model a tier serves on the seed's held-out rows
// from index lo on, as one op that fails above the bound.  It runs untimed
// after the load and generates the rows again, so the measured phase does
// not carry them on its heap.
func heldOutError(cfg config, t *tier, lo int, res *result) (float64, error) {
	_, test, err := denseSplit(cfg.seed)
	if err != nil {
		return 0, err
	}
	x := test.Dense.Slice(lo, test.NumSamples(), 0, test.Dense.Cols)
	e := errorPct(t.worker.Model().PredictBatch(x), test.Labels[lo:])
	res.expect(e <= maxServeErrPct, fmt.Sprintf("served model's held-out error %.2f%% above the %d%% bound", e, maxServeErrPct))
	return e, nil
}

// bulkInputs are serve-bulk's pre-encoded 64-sample requests with the
// classes Model.PredictBatch gives on the same rows.
type bulkInputs struct {
	modelPath string
	bodies    [][]byte
	want      [][]int
	probeX    *mat.Dense // the rows of the first request
}

func newBulkInputs(cfg config) (*bulkInputs, error) {
	in, err := newServingInputs(cfg)
	if err != nil {
		return nil, err
	}
	b := &bulkInputs{modelPath: in.modelPath, probeX: in.rows(0, bulkRows)}
	for r := 0; r < bulkRequests; r++ {
		x := in.rows(r*bulkRows, (r+1)*bulkRows)
		body, err := json.Marshal(predictRequest(x))
		if err != nil {
			return nil, err
		}
		b.bodies = append(b.bodies, body)
		b.want = append(b.want, in.model.PredictBatch(x))
	}
	return b, nil
}

// bulkOp sends request j through the router and checks the classes.
func bulkOp(lc *loadClient, t *tier, b *bulkInputs, j int, rec *recorder) string {
	var resp serve.PredictResponse
	if err := lc.post(t.routerURL+"/v1/predict", b.bodies[j], rec, &resp); err != nil {
		return err.Error()
	}
	if r := checkClasses(resp.Classes, b.want[j]); r != "" {
		return "serve-bulk " + r
	}
	return ""
}

// bulkRun is one measured closed-loop phase.
type bulkRun struct {
	latSec  []float64
	samples int
	elapsed float64
}

// bulkLoad runs the closed loop for d.  Each client waits a think time
// drawn uniformly from [0, bulkThinkMax) between requests; without it
// several clients lock into a phase that holds for a whole run, and the
// median request time jumps between runs with which phase they found.
func bulkLoad(cfg config, t *tier, lc *loadClient, b *bulkInputs, d time.Duration, rec *recorder, res *result) bulkRun {
	var (
		mu  sync.Mutex
		run bulkRun
		wg  sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(d)
	for k := 0; k < bulkClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			think := rand.New(rand.NewSource(cfg.seed*bulkClients + int64(k)))
			for i := k; time.Now().Before(end); i += bulkClients {
				time.Sleep(time.Duration(think.Int63n(int64(bulkThinkMax))))
				t0 := time.Now()
				reason := bulkOp(lc, t, b, i%len(b.bodies), rec)
				lat := time.Since(t0).Seconds()
				mu.Lock()
				res.op(reason)
				if reason == "" {
					run.latSec = append(run.latSec, lat)
					run.samples += bulkRows
				}
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	run.elapsed = time.Since(start).Seconds()
	return run
}

// runServeBulk: 64-sample requests from a closed-loop client through
// router → worker.  Per-sample costs dominate: JSON floats on two hops,
// batcher items, batch assembly and the GEMM.  No fit code runs.
func runServeBulk(cfg config, res *result) error {
	b, err := newBulkInputs(cfg)
	if err != nil {
		return err
	}
	releaseInputs()
	lc := newLoadClient()
	defer lc.close()
	warm := func(t *tier) error {
		for j := 0; j < bulkWarmup; j++ {
			res.op(bulkOp(lc, t, b, j, nil))
		}
		return nil
	}
	spec := tierSpec{modelPath: b.modelPath, wrap: cfg.wrapBackend}
	if !cfg.trace {
		t, setup, err := setupTier(spec, setupReps, warm)
		if err != nil {
			return err
		}
		stopRSS := watchRSS(rssWindow)
		run := bulkLoad(cfg, t, lc, b, cfg.duration, nil, res)
		rssMB, err := stopRSS()
		var heldOut float64
		if err == nil {
			heldOut, err = heldOutError(cfg, t, 0, res)
		}
		if err := errors.Join(err, t.close()); err != nil {
			return err
		}
		if len(run.latSec) == 0 {
			return errors.New("no request succeeded")
		}
		res.set("setup_s", setup)
		res.set("peak_rss_mb", median(rssMB))
		res.set("latency_p50_ms", 1e3*median(run.latSec))
		res.set("latency_p90_ms", 1e3*quantile(run.latSec, 0.9))
		res.set("samples_per_s", float64(run.samples)/run.elapsed)
		// No /v1/observe stream here: what the tier takes in is predict rows.
		res.set("observe_per_s", float64(run.samples)/run.elapsed)
		res.set("holdout_error_pct", heldOut)
		return nil
	}
	// Traced run: an untraced half, then a traced half on a tier whose
	// boundaries are wrapped, then probes at the 64-sample shape.
	tA, _, err := setupTier(spec, 1, warm)
	if err != nil {
		return err
	}
	runA := bulkLoad(cfg, tA, lc, b, cfg.duration/2, nil, res)
	cA, err := counters(tA)
	if err := errors.Join(err, tA.close()); err != nil {
		return err
	}
	rec := newRecorder()
	spec.rec = rec
	tB, _, err := setupTier(spec, 1, warm)
	if err != nil {
		return err
	}
	err = traceBulk(cfg, rec, res, tB, lc, b, runA, cA)
	if err := errors.Join(err, tB.close()); err != nil {
		return err
	}
	return rec.write(spanPath(cfg))
}

// traceBulk runs the traced half on tB and probes the layers at the
// 64-sample shape.
func traceBulk(cfg config, rec *recorder, res *result, tB *tier, lc *loadClient, b *bulkInputs, runA bulkRun, cA tierCounters) error {
	c0, err0 := counters(tB)
	runB := bulkLoad(cfg, tB, lc, b, cfg.duration/2, rec, res)
	cB, err := counters(tB)
	if err := errors.Join(err0, err); err != nil {
		return err
	}
	if len(runA.latSec) == 0 || len(runB.latSec) == 0 {
		return errors.New("no request succeeded")
	}
	res.set("trace.overhead_pct", overheadPct(runA.latSec, runB.latSec))
	res.set("serve.batch_size_mean", (cB.samples-c0.samples)/(cB.batches-c0.batches))
	res.set("serve.queue_rejects", cA.queueRejects+cB.queueRejects)
	res.set("router.sheds", cA.sheds+cB.sheds)
	setSpanLayers(rec, res)
	x := b.probeX
	if err := probeServing(rec, res, tB, lc, x, b.bodies[0]); err != nil {
		return err
	}
	// pool.speedup: the batch kernel at Workers=1 against GOMAXPROCS.
	m := tB.worker.Model()
	seqM := &core.Model{W: m.W, B: m.B, NumClasses: m.NumClasses, Centroids: m.Centroids, Workers: 1}
	parM := &core.Model{W: m.W, B: m.B, NumClasses: m.NumClasses, Centroids: m.Centroids}
	tSeq, tPar := rec.probePair("core.predict_batch_w1", func() { seqM.PredictBatch(x) },
		"core.predict_batch_wmax", func() { parM.PredictBatch(x) }, 200)
	res.set("pool.speedup", tSeq/tPar)
	_, err = heldOutError(cfg, tB, 0, res)
	return err
}

// setSpanLayers splits the routed request from the boundary spans: the
// worker handler's time, and the router handler's time outside the
// forward to the worker.
func setSpanLayers(rec *recorder, res *result) {
	res.set("serve.handler_us", 1e6*median(rec.durations("worker/v1/predict")))
	res.set("router.self_us", 1e6*median(rec.selfTimes("router/v1/predict", "router.forward")))
}

// probeServing times each serving layer at the workload's request shape
// on an idle tier: the JSON codec, client → worker over HTTP, client →
// router → worker, Router.Predict over LocalBackend, Server.Predict, and
// Model.PredictBatch.
func probeServing(rec *recorder, res *result, t *tier, lc *loadClient, x *mat.Dense, body []byte) error {
	req := predictRequest(x)
	res.set("serve.body_kb", float64(len(body))/1024)
	var encErr, decErr error
	res.set("serve.json_encode_us", 1e6*rec.probe("serve.json_encode", probeReps, func() { _, encErr = json.Marshal(req) }))
	res.set("serve.json_decode_us", 1e6*rec.probe("serve.json_decode", probeReps, func() {
		var r serve.PredictRequest
		decErr = json.Unmarshal(body, &r)
	}))
	if err := errors.Join(encErr, decErr); err != nil {
		return err
	}
	var httpErr error
	post := func(url string) func() {
		return func() {
			var resp serve.PredictResponse
			if err := lc.post(url+"/v1/predict", body, nil, &resp); err != nil {
				httpErr = err
			}
		}
	}
	direct, routed := rec.probePair("serve.http_worker", post(t.workerURL), "router.http_routed", post(t.routerURL), probeReps)
	if httpErr != nil {
		return httpErr
	}
	res.set("serve.http_worker_us", 1e6*direct)
	res.set("router.http_hop_us", 1e6*(routed-direct))
	local, err := router.New([]router.Backend{&router.LocalBackend{ReplicaName: "local", Server: t.worker}}, router.Options{})
	if err != nil {
		return err
	}
	ctx := context.Background()
	var predErr error
	predict, routedLocal := rec.probePair("serve.predict", func() {
		if _, err := t.worker.Predict(ctx, req); err != nil {
			predErr = err
		}
	}, "router.local", func() {
		if _, err := local.Predict(ctx, req); err != nil {
			predErr = err
		}
	}, probeReps)
	local.Close()
	if predErr != nil {
		return predErr
	}
	res.set("serve.predict_us", 1e6*predict)
	res.set("router.local_us", 1e6*(routedLocal-predict))
	m := t.worker.Model()
	res.set("core.predict_batch_us", 1e6*rec.probe("core.predict_batch", 200, func() { m.PredictBatch(x) }))
	return nil
}

// tierCounters are the worker's and router's own counters, read from
// their metrics registries.
type tierCounters struct {
	samples, batches, queueRejects, sheds, refits float64
}

func counters(t *tier) (tierCounters, error) {
	var c tierCounters
	regs := []*obs.Registry{t.worker.Registry(), t.router.Registry()}
	if t.trainer != nil {
		regs = append(regs, t.trainer.Metrics())
	}
	for _, reg := range regs {
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		fams, err := obs.ParsePrometheus(buf.Bytes())
		if err != nil {
			return c, err
		}
		for _, f := range fams {
			for _, s := range f.Samples {
				switch s.Name {
				case "srdaserve_samples_total":
					c.samples += s.Value
				case "srdaserve_batches_total":
					c.batches += s.Value
				case "srdaserve_queue_rejects_total":
					c.queueRejects += s.Value
				case "srdaroute_shed_total":
					c.sheds += s.Value
				case "srdaonline_refits_total":
					c.refits += s.Value
				}
			}
		}
	}
	return c, nil
}
