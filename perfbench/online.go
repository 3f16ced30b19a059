package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"srda"
	"srda/internal/core"
	"srda/internal/decomp"
	"srda/internal/mat"
	"srda/internal/online"
	"srda/internal/registry"
	"srda/internal/serve"
)

// onlineInputs are serve-online's pre-encoded single-sample predicts,
// drawn from the held-out rows, and the labeled stream the feeder cycles
// through.
type onlineInputs struct {
	modelPath    string
	predict      [][]byte
	observe      [][]byte // onlineStream/onlineBatch bodies, in stream order
	stream       *mat.Dense
	streamLabels []int
	probeX       *mat.Dense // the row of the first predict
}

func newOnlineInputs(cfg config) (*onlineInputs, error) {
	in, err := newServingInputs(cfg)
	if err != nil {
		return nil, err
	}
	o := &onlineInputs{
		modelPath:    in.modelPath,
		stream:       in.rows(0, onlineStream),
		streamLabels: in.test.Labels[:onlineStream],
		probeX:       in.rows(onlineStream, onlineStream+1),
	}
	for i := onlineStream; i < onlineStream+onlinePredict; i++ {
		body, err := json.Marshal(predictRequest(in.rows(i, i+1)))
		if err != nil {
			return nil, err
		}
		o.predict = append(o.predict, body)
	}
	for lo := 0; lo < onlineStream; lo += onlineBatch {
		req := serve.ObserveRequest{Samples: make([]serve.LabeledSample, onlineBatch)}
		for i := range req.Samples {
			req.Samples[i] = serve.LabeledSample{Sample: serve.DenseSample(o.stream.RowView(lo + i)), Label: o.streamLabels[lo+i]}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		o.observe = append(o.observe, body)
	}
	return o, nil
}

// predictOp sends predict body j through the router.  Every reply must be
// a 200 with one class in range and a model_seq no lower than the last.
func predictOp(lc *loadClient, t *tier, in *onlineInputs, j int, rec *recorder, lastSeq *uint64) string {
	var resp serve.PredictResponse
	if err := lc.post(t.routerURL+"/v1/predict", in.predict[j], rec, &resp); err != nil {
		return err.Error()
	}
	switch {
	case len(resp.Classes) != 1 || resp.Classes[0] < 0 || resp.Classes[0] >= denseClasses:
		return fmt.Sprintf("serve-online reply classes %v out of range", resp.Classes)
	case resp.ModelSeq < *lastSeq:
		return fmt.Sprintf("model_seq went back from %d to %d", *lastSeq, resp.ModelSeq)
	}
	*lastSeq = resp.ModelSeq
	return ""
}

// onlineRun is one measured phase of serve-online.
type onlineRun struct {
	latSec     []float64 // from each predict's due time
	lagSec     []float64 // how late each predict was sent
	sliceP90   []float64 // of latSec, per predict slice
	predicted  int
	predictSec float64
	observed   int
	feedSec    float64
}

// onlineLoad alternates, for d, a slice of open-loop predicts with a slice
// of the closed-loop feeder, each onlineSlice long, so every predict slice
// reads the model the feed slice before it published.  The two do not run
// side by side: with the feeder beside them, the share of predicts it
// slowed past 5.5 ms ranged from 1% to 25% between processes on the same
// code as the shared host's load changed, and p90 jumped with it.
func onlineLoad(t *tier, lc *loadClient, in *onlineInputs, d time.Duration, rec *recorder, res *result) *onlineRun {
	var (
		run     onlineRun
		lastSeq uint64
		i, j    int // the next predict and observe bodies
	)
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		start := time.Now()
		n := len(run.latSec)
		for k := 0; ; k, i = k+1, i+1 {
			due := start.Add(time.Duration(float64(k) / onlineRate * float64(time.Second)))
			if !due.Before(start.Add(onlineSlice)) {
				break
			}
			time.Sleep(time.Until(due))
			lag := time.Since(due).Seconds()
			reason := predictOp(lc, t, in, i%len(in.predict), rec, &lastSeq)
			lat := time.Since(due).Seconds()
			res.op(reason)
			if reason == "" {
				run.latSec = append(run.latSec, lat)
				run.lagSec = append(run.lagSec, lag)
				run.predicted++
			}
		}
		run.predictSec += time.Since(start).Seconds()
		if len(run.latSec) > n {
			run.sliceP90 = append(run.sliceP90, quantile(run.latSec[n:], 0.9))
		}
		start = time.Now()
		for ; time.Since(start) < onlineSlice; j++ {
			var resp serve.ObserveResponse
			reason := ""
			if err := lc.post(t.workerURL+"/v1/observe", in.observe[j%len(in.observe)], rec, &resp); err != nil {
				reason = err.Error()
			} else if resp.Observed != onlineBatch {
				reason = fmt.Sprintf("observe absorbed %d of %d samples", resp.Observed, onlineBatch)
			}
			res.op(reason)
			if reason == "" {
				run.observed += onlineBatch
			}
		}
		run.feedSec += time.Since(start).Seconds()
	}
	return &run
}

// streamingGolden checks, untimed, that a final Refit equals the batch
// primal fit on exactly the rows the trainer observed, bitwise.
func streamingGolden(t *tier, in *onlineInputs) string {
	refit, _, err := t.trainer.Refit()
	if err != nil {
		return fmt.Sprintf("final refit: %v", err)
	}
	n := int(t.trainer.Seen())
	x := mat.NewDense(n, in.stream.Cols)
	labels := make([]int, n)
	for r := 0; r < n; r++ {
		copy(x.RowView(r), in.stream.RowView(r%onlineStream))
		labels[r] = in.streamLabels[r%onlineStream]
	}
	batch, err := srda.Fit(x, labels, denseClasses, srda.Options{Alpha: alpha, Solver: srda.SolverPrimal})
	if err != nil {
		return fmt.Sprintf("batch fit of the observed rows: %v", err)
	}
	if !sameModel(refit, batch) {
		return fmt.Sprintf("streaming refit differs bitwise from srda.Fit(SolverPrimal) on the %d observed rows", n)
	}
	return ""
}

// runServeOnline: single-sample predicts at a fixed rate through router →
// worker, beside a feeder whose /v1/observe batches trigger synchronous
// refits published into the registry the predicts read.  The MaxWait
// floor and HTTP overhead dominate the predicts; absorption, refits and
// publishes compete with them.
func runServeOnline(cfg config, res *result) error {
	in, err := newOnlineInputs(cfg)
	if err != nil {
		return err
	}
	releaseInputs()
	lc := newLoadClient()
	defer lc.close()
	warm := func(t *tier) error {
		var lastSeq uint64
		for j := 0; j < onlineWarmup; j++ {
			res.op(predictOp(lc, t, in, j, nil, &lastSeq))
		}
		return nil
	}
	spec := tierSpec{modelPath: in.modelPath, online: true, wrap: cfg.wrapBackend}
	// checkEnd scores the live model on the held-out rows past the stream,
	// then runs the streaming↔batch golden.
	checkEnd := func(t *tier) (float64, error) {
		e, err := heldOutError(cfg, t, onlineStream, res)
		res.op(streamingGolden(t, in))
		return e, err
	}
	if !cfg.trace {
		t, setup, err := setupTier(spec, setupReps, warm)
		if err != nil {
			return err
		}
		stopRSS := watchRSS(rssWindow)
		run := onlineLoad(t, lc, in, cfg.duration, nil, res)
		rssMB, err := stopRSS()
		if err != nil {
			_ = t.close() // the RSS error is the one to report
			return err
		}
		if run.predicted == 0 {
			_ = t.close() // nothing to measure; report that
			return errors.New("no predict succeeded")
		}
		res.set("setup_s", setup)
		res.set("peak_rss_mb", median(rssMB))
		res.set("latency_p50_ms", 1e3*median(run.latSec))
		// The median over slices keeps a second or two in which the shared
		// host stalls the predict path from setting the run's tail.
		res.set("latency_p90_ms", 1e3*median(run.sliceP90))
		res.set("samples_per_s", float64(run.predicted)/run.predictSec)
		res.set("observe_per_s", float64(run.observed)/run.feedSec)
		heldOut, err := checkEnd(t)
		if err := errors.Join(err, t.close()); err != nil {
			return err
		}
		res.set("holdout_error_pct", heldOut)
		return nil
	}
	tA, _, err := setupTier(spec, 1, warm)
	if err != nil {
		return err
	}
	runA := onlineLoad(tA, lc, in, cfg.duration/2, nil, res)
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
	err = traceOnline(rec, res, tB, lc, in, runA, cA, cfg.duration/2)
	if err == nil {
		_, err = checkEnd(tB)
	}
	if err := errors.Join(err, tB.close()); err != nil {
		return err
	}
	return rec.write(spanPath(cfg))
}

// traceOnline runs the traced half on tB and probes the layers at the
// single-sample shape.
func traceOnline(rec *recorder, res *result, tB *tier, lc *loadClient, in *onlineInputs, runA *onlineRun, cA tierCounters, d time.Duration) error {
	c0, err0 := counters(tB)
	runB := onlineLoad(tB, lc, in, d, rec, res)
	cB, err := counters(tB)
	if err := errors.Join(err0, err); err != nil {
		return err
	}
	if runA.predicted == 0 || runB.predicted == 0 {
		return errors.New("no predict succeeded")
	}
	res.set("trace.overhead_pct", overheadPct(runA.latSec, runB.latSec))
	res.set("loadgen.lag_p90_ms", 1e3*quantile(runA.lagSec, 0.9))
	res.set("serve.batch_size_mean", (cB.samples-c0.samples)/(cB.batches-c0.batches))
	res.set("serve.queue_rejects", cA.queueRejects+cB.queueRejects)
	res.set("router.sheds", cA.sheds+cB.sheds)
	res.set("online.refits", cB.refits-c0.refits)
	setSpanLayers(rec, res)
	if err := probeServing(rec, res, tB, lc, in.probeX, in.predict[0]); err != nil {
		return err
	}
	return probeOnline(rec, res, tB, in)
}

// probeOnline times the write path's layers at the stream's shape on
// standalone instances: per-sample absorption, a refit, its Cholesky and
// FitStats solve at Workers=1 and GOMAXPROCS, and a registry publish.
func probeOnline(rec *recorder, res *result, t *tier, in *onlineInputs) error {
	n := in.stream.Cols
	st, err := online.NewStreamTrainer(online.Config{NumFeatures: n, NumClasses: denseClasses, Alpha: alpha})
	if err != nil {
		return err
	}
	defer st.Close()
	i := 0
	var obsErr error
	observe := rec.probe("online.observe", refitEvery, func() {
		if err := st.Observe(in.stream.RowView(i), in.streamLabels[i]); err != nil {
			obsErr = err
		}
		i++
	})
	if obsErr != nil {
		return obsErr
	}
	res.set("online.observe_us", 1e6*observe)
	var refitErr error
	res.set("online.refit_ms", 1e3*rec.probe("online.refit", 3, func() {
		if _, _, err := st.Refit(); err != nil {
			refitErr = err
		}
	}))
	if refitErr != nil {
		return refitErr
	}
	x := in.stream.Slice(0, refitEvery, 0, n)
	stats, err := absorbRows(x, in.streamLabels[:refitEvery], denseClasses)
	if err != nil {
		return err
	}
	var fitErr error
	fitStats := func(workers int) func() {
		return func() {
			if _, err := core.FitStats(stats, core.Options{Alpha: alpha, Workers: workers}); err != nil {
				fitErr = err
			}
		}
	}
	par, seq := rec.probePair("core.fitstats", fitStats(0), "core.fitstats_w1", fitStats(1), 3)
	if fitErr != nil {
		return fitErr
	}
	res.set("core.fitstats_ms", 1e3*par)
	res.set("pool.speedup", seq/par)
	// The refit's Cholesky: the augmented Gram of the same rows plus the
	// ridge.
	g := mat.ParGram(0, augment(x))
	for d := 0; d <= n; d++ {
		g.Set(d, d, g.At(d, d)+alpha)
	}
	var cholErr error
	chol := rec.probe("decomp.cholesky", 3, func() {
		if _, err := decomp.NewCholesky(g); err != nil {
			cholErr = err
		}
	})
	if cholErr != nil {
		return cholErr
	}
	na := float64(n + 1)
	res.set("decomp.cholesky_ms", 1e3*chol)
	res.set("decomp.cholesky_gflops", na*na*na/3/chol/1e9)
	reg := registry.New(registry.Options{})
	live := t.worker.Model()
	var pubErr error
	res.set("registry.publish_us", 1e6*rec.probe("registry.publish", 200, func() {
		if _, err := reg.Publish(serve.DefaultModelName, live); err != nil {
			pubErr = err
		}
	}))
	return pubErr
}
