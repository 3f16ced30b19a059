package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"srda"
	"srda/internal/blas"
	"srda/internal/core"
	"srda/internal/dataset"
	"srda/internal/decomp"
	"srda/internal/flam"
	"srda/internal/mat"
	"srda/internal/regress"
	"srda/internal/solver"
	"srda/internal/sparse"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// fitCase is what the fit loop needs from one fit workload.
type fitCase struct {
	trainRows int
	fit       func(workers int) (*core.Model, error)
	classify  func(m *core.Model) []int
	test      *dataset.Dataset
	maxErrPct float64
}

// fitRef is the run's first fit: every later op must reproduce it.
type fitRef struct {
	model   *core.Model
	classes []int
	errPct  float64
}

// fitOps measures fit-then-classify ops for d.  The first op of the run
// becomes ref; each op fails unless its model is bitwise equal to ref's
// and its held-out error is within the workload's bound.
// rssMB holds each op's resident-set high-water mark.
func fitOps(c *fitCase, d time.Duration, res *result, ref *fitRef) (fitSec, classifySec, rssMB []float64, err error) {
	end := time.Now().Add(d)
	for len(fitSec) == 0 || time.Now().Before(end) {
		// Collect the previous op's garbage outside the timed region, so
		// the collector's pacing does not decide which fit pays for it.
		runtime.GC()
		if err := resetHWM(); err != nil {
			return nil, nil, nil, err
		}
		var m *core.Model
		var ferr error
		fitSec = append(fitSec, timeIt(func() { m, ferr = c.fit(0) }))
		if ferr != nil {
			return nil, nil, nil, ferr
		}
		var pred []int
		classifySec = append(classifySec, timeIt(func() { pred = c.classify(m) }))
		mb, err := peakRSSMiB()
		if err != nil {
			return nil, nil, nil, err
		}
		rssMB = append(rssMB, mb)
		res.op(c.check(m, pred, ref))
	}
	return fitSec, classifySec, rssMB, nil
}

// check gates one op against the reference, adopting the first op as it.
func (c *fitCase) check(m *core.Model, pred []int, ref *fitRef) string {
	e := errorPct(pred, c.test.Labels)
	if ref.model == nil {
		*ref = fitRef{model: m, classes: pred, errPct: e}
	}
	switch {
	case !sameModel(m, ref.model):
		return "model differs bitwise from the run's first fit"
	case e > c.maxErrPct:
		return fmt.Sprintf("held-out error %.2f%% above the %g%% bound", e, c.maxErrPct)
	}
	return checkClasses(pred, ref.classes)
}

// setupFit parses the training file setupReps times, densifying it for a
// dense fit; setup_s is the median and the last parse is the program's
// matrix.
func setupFit(path string, features int, dense bool) (*dataset.Dataset, float64, error) {
	var times []float64
	var ds *dataset.Dataset
	for i := 0; i < setupReps; i++ {
		var err error
		t0 := time.Now()
		ds, err = readLibSVM(path, features)
		if err != nil {
			return nil, 0, err
		}
		if dense {
			ds = &dataset.Dataset{Dense: ds.Sparse.ToDense(), Labels: ds.Labels, NumClasses: ds.NumClasses}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return ds, median(times), nil
}

// runFit is the shared body of the fit workloads.  The untraced run
// measures fits for the whole duration; the traced run measures them for
// half of it, replays the fit through its public layer calls for the
// other half, then probes the kernels.
func runFit(cfg config, res *result, c *fitCase, replay func(*recorder) (*core.Model, error), probes func(*recorder, *fitRef, []float64) error) error {
	var ref fitRef
	if !cfg.trace {
		fitSec, classifySec, rssMB, err := fitOps(c, cfg.duration, res, &ref)
		if err != nil {
			return err
		}
		res.set("peak_rss_mb", median(rssMB))
		res.set("latency_p50_ms", 1e3*median(fitSec))
		res.set("latency_p90_ms", 1e3*quantile(fitSec, 0.9))
		res.set("samples_per_s", float64(c.test.NumSamples())/median(classifySec))
		res.set("observe_per_s", float64(c.trainRows)/median(fitSec))
		res.set("holdout_error_pct", ref.errPct)
		return nil
	}
	rec := newRecorder()
	fitSec, classifySec, _, err := fitOps(c, cfg.duration/2, res, &ref)
	if err != nil {
		return err
	}
	var replaySec []float64
	end := time.Now().Add(cfg.duration / 2)
	for len(replaySec) == 0 || time.Now().Before(end) {
		runtime.GC()
		var m *core.Model
		replaySec = append(replaySec, timeIt(func() { m, err = replay(rec) }))
		if err != nil {
			return err
		}
		// The composition check: the replay must be the program's fit.
		res.expect(sameModel(m, ref.model), "fit replayed through layer calls differs bitwise from srda's fit")
	}
	res.set("trace.overhead_pct", overheadPct(fitSec, replaySec))
	res.set("core.predict_batch_us", 1e6*median(classifySec))
	// pool.speedup: the same fit at Workers=1, which must also be bitwise
	// equal (the sequential-twin contract).
	var seqSec []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		var m *core.Model
		seqSec = append(seqSec, timeIt(func() { m, err = c.fit(1) }))
		if err != nil {
			return err
		}
		res.expect(sameModel(m, ref.model), "Workers=1 fit differs bitwise from the GOMAXPROCS fit")
	}
	res.set("pool.speedup", median(seqSec)/median(fitSec))
	if err := probes(rec, &ref, fitSec); err != nil {
		return err
	}
	return rec.write(spanPath(cfg))
}

func fitOptions(workers int) srda.Options {
	return srda.Options{Alpha: alpha, LSQRIter: lsqrIter, Workers: workers}
}

// runFitSparse: the paper's linear-time path, FitCSR through LSQR.
func runFitSparse(cfg config, res *result) error {
	train, test, err := newsSplit(cfg.seed)
	if err != nil {
		return err
	}
	path, err := writeLibSVM(cfg.inputDir, "train.svm", train)
	if err != nil {
		return err
	}
	trainRows := train.NumSamples()
	releaseInputs()
	ds, setup, err := setupFit(path, newsVocab, false)
	if err != nil {
		return err
	}
	if ds.NumSamples() != trainRows {
		return fmt.Errorf("parsed %d training rows, wrote %d", ds.NumSamples(), trainRows)
	}
	res.set("setup_s", setup)
	x, labels := ds.Sparse, ds.Labels
	c := &fitCase{
		trainRows: trainRows,
		fit: func(workers int) (*core.Model, error) {
			return srda.FitCSR(x, labels, newsClasses, fitOptions(workers))
		},
		classify:  func(m *core.Model) []int { return m.PredictBatchCSR(test.Sparse) },
		test:      test,
		maxErrPct: maxSparseErrPct,
	}
	replay := func(rec *recorder) (*core.Model, error) { return replaySparse(rec, x, labels) }
	probes := func(rec *recorder, ref *fitRef, fitSec []float64) error {
		res.set("core.responses_ms", 1e3*median(rec.durations("core.responses")))
		res.set("regress.lsqr_ms", 1e3*median(rec.durations("regress.lsqr")))
		res.set("core.centroids_ms", 1e3*median(rec.durations("core.centroids")))
		iters := ref.model.Iters
		res.set("solver.lsqr_iters", float64(iters))
		res.set("sparse.x_passes", float64(2*iters))
		rng := rand.New(rand.NewSource(cfg.seed))
		v, u := randVec(rng, x.Cols), randVec(rng, x.Rows)
		dstM, dstN := make([]float64, x.Rows), make([]float64, x.Cols)
		mv := rec.probe("sparse.matvec", 200, func() { x.ParMulVec(0, v, dstM) })
		mvt := rec.probe("sparse.matvec_t", 200, func() { x.ParMulTVec(0, u, dstN) })
		res.set("sparse.matvec_us", 1e6*mv)
		res.set("sparse.matvec_t_us", 1e6*mvt)
		// Bytes one ParMulVec must move at least: values and column
		// indices, row pointers, the output and the input vector.
		bytes := 16*float64(x.NNZ()) + 8*float64(2*x.Rows+1) + 8*float64(x.Cols)
		res.set("sparse.gbytes_per_s_computed", bytes/mv/1e9)
		perResponse := (iters + newsClasses - 2) / (newsClasses - 1)
		count := flam.SRDALSQRSparse(flam.Problem{M: x.Rows, N: x.Cols, C: newsClasses, K: perResponse, S: x.AvgRowNNZ()})
		res.set("core.fit_gflops", 2*count.Flam/median(fitSec)/1e9)
		return nil
	}
	return runFit(cfg, res, c, replay, probes)
}

// replaySparse is srda.FitCSR spelled out as its public layer calls, each
// a span: responses, the LSQR solves, then the centroids.
func replaySparse(rec *recorder, x *sparse.CSR, labels []int) (*core.Model, error) {
	req := rec.newReq()
	root := rec.start("fit", 0, req)
	defer root.end()
	sp := rec.start("core.responses", root.s.ID, req)
	rt, err := core.GenerateResponses(labels, newsClasses)
	if err != nil {
		return nil, err
	}
	y := rt.Materialize(labels)
	sp.end()
	sp = rec.start("regress.lsqr", root.s.ID, req)
	rm, err := regress.FitOperator(solver.SparseOp{A: x}, y, regress.Options{
		Alpha: alpha, Intercept: true, LSQRIter: lsqrIter,
	})
	sp.end()
	if err != nil {
		return nil, err
	}
	m := &core.Model{W: rm.W, B: rm.B, NumClasses: newsClasses, Alpha: alpha, Iters: rm.Iters, Strategy: rm.Strategy, Stats: rm.Stats}
	sp = rec.start("core.centroids", root.s.ID, req)
	err = m.SetCentroids(m.TransformSparse(x), labels)
	sp.end()
	return m, err
}

// runFitDense: MNIST-like rows with m > n take the primal path, Gram plus
// Cholesky; no LSQR or CSR code runs.
func runFitDense(cfg config, res *result) error {
	train, test, err := denseSplit(cfg.seed)
	if err != nil {
		return err
	}
	test = test.Subset(seq(denseHoldout))
	path, err := writeLibSVM(cfg.inputDir, "train.svm", train)
	if err != nil {
		return err
	}
	trainRows := train.NumSamples()
	releaseInputs()
	ds, setup, err := setupFit(path, denseFeatures, true)
	if err != nil {
		return err
	}
	if ds.NumSamples() != trainRows {
		return fmt.Errorf("parsed %d training rows, wrote %d", ds.NumSamples(), trainRows)
	}
	res.set("setup_s", setup)
	x, labels := ds.Dense, ds.Labels
	c := &fitCase{
		trainRows: trainRows,
		fit: func(workers int) (*core.Model, error) {
			return srda.Fit(x, labels, denseClasses, fitOptions(workers))
		},
		classify:  func(m *core.Model) []int { return m.PredictBatch(test.Dense) },
		test:      test,
		maxErrPct: maxDenseErrPct,
	}
	replay := func(rec *recorder) (*core.Model, error) { return replayDense(rec, x, labels) }
	probes := func(rec *recorder, ref *fitRef, fitSec []float64) error {
		na := float64(x.Cols + 1)
		gram := median(rec.durations("mat.gram"))
		chol := median(rec.durations("decomp.cholesky"))
		res.set("core.responses_ms", 1e3*median(rec.durations("core.responses")))
		res.set("core.centroids_ms", 1e3*median(rec.durations("core.centroids")))
		res.set("mat.gram_ms", 1e3*gram)
		res.set("mat.gram_gflops", float64(x.Rows)*na*(na+1)/gram/1e9)
		res.set("decomp.cholesky_ms", 1e3*chol)
		res.set("decomp.cholesky_gflops", na*na*na/3/chol/1e9)
		count := flam.SRDANormal(flam.Problem{M: x.Rows, N: x.Cols, C: denseClasses})
		res.set("core.fit_gflops", 2*count.Flam/median(fitSec)/1e9)
		// core.FitStats on statistics absorbed row by row must give the
		// batch model too (the streaming↔batch bridge).
		stats, err := absorbRows(x, labels, denseClasses)
		if err != nil {
			return err
		}
		var m *core.Model
		fs := rec.probe("core.fitstats", 3, func() { m, err = core.FitStats(stats, core.Options{Alpha: alpha}) })
		if err != nil {
			return err
		}
		res.expect(sameModel(m, ref.model), "core.FitStats on absorbed rows differs bitwise from srda.Fit")
		res.set("core.fitstats_ms", 1e3*fs)
		return nil
	}
	return runFit(cfg, res, c, replay, probes)
}

// replayDense is srda.Fit's primal path spelled out as its public layer
// calls: responses, the augmented Gram and class sums, the ridge
// Cholesky, the solve, and the stats-based centroids.
func replayDense(rec *recorder, x *mat.Dense, labels []int) (*core.Model, error) {
	req := rec.newReq()
	root := rec.start("fit", 0, req)
	defer root.end()
	n, na := x.Cols, x.Cols+1
	sp := rec.start("core.responses", root.s.ID, req)
	rt, err := core.GenerateResponses(labels, denseClasses)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = rec.start("core.augment", root.s.ID, req)
	xa := augment(x)
	sp.end()
	sp = rec.start("mat.gram", root.s.ID, req)
	g := mat.ParGram(0, xa)
	sp.end()
	sp = rec.start("core.class_sums", root.s.ID, req)
	sums := mat.NewDense(denseClasses, na)
	for i, y := range labels {
		blas.Axpy(1, xa.RowView(i), sums.RowView(y))
	}
	sp.end()
	sp = rec.start("decomp.cholesky", root.s.ID, req)
	for i := 0; i < na; i++ {
		g.Set(i, i, g.At(i, i)+alpha)
	}
	ch, err := decomp.NewCholesky(g)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = rec.start("decomp.solve", root.s.ID, req)
	wAug := ch.Solve(mat.MulTA(sums, rt.Values))
	sp.end()
	k := wAug.Cols
	m := &core.Model{W: wAug.Slice(0, n, 0, k).Clone(), B: make([]float64, k), NumClasses: denseClasses, Alpha: alpha, Strategy: regress.Primal}
	for j := 0; j < k; j++ {
		m.B[j] = wAug.At(n, j)
	}
	sp = rec.start("core.centroids", root.s.ID, req)
	cent := mat.NewDense(denseClasses, k)
	mean := make([]float64, n)
	for c := 0; c < denseClasses; c++ {
		row := sums.RowView(c)
		inv := 1 / float64(rt.Counts[c])
		for j := 0; j < n; j++ {
			mean[j] = row[j] * inv
		}
		m.TransformVec(mean, cent.RowView(c))
	}
	m.Centroids = cent
	sp.end()
	return m, nil
}

// augment appends the constant-1 intercept column, as the primal fit does.
func augment(x *mat.Dense) *mat.Dense {
	xa := mat.NewDense(x.Rows, x.Cols+1)
	for i := 0; i < x.Rows; i++ {
		row := xa.RowView(i)
		copy(row, x.RowView(i))
		row[x.Cols] = 1
	}
	return xa
}

// absorbRows streams the rows into sufficient statistics, as the online
// trainer does.
func absorbRows(x *mat.Dense, labels []int, classes int) (*core.SuffStats, error) {
	s, err := core.NewSuffStats(x.Cols, classes)
	if err != nil {
		return nil, err
	}
	for i, y := range labels {
		if err := s.Absorb(x.RowView(i), y); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// seq returns 0, 1, ..., n-1.
func seq(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
