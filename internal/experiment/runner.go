// Package experiment reproduces the paper's evaluation protocol: for each
// dataset and each training-set size, run R random train/test splits, fit
// every compared algorithm (LDA, RLDA, SRDA, IDR/QR), classify held-out
// samples by nearest centroid in the learned subspace, and report the
// mean ± std error rate (Tables III, V, VII, IX / Figures 1–4 left) and
// the mean training time (Tables IV, VI, VIII, X / Figures 1–4 right).
//
// The paper ran on a 2 GB machine and reports "—" where an algorithm
// could not fit; the harness models that wall with the flam-package
// memory formulas so the same cells go blank regardless of the host's
// actual RAM.
package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"srda/internal/classify"
	"srda/internal/core"
	"srda/internal/dataset"
	"srda/internal/flam"
	"srda/internal/idrqr"
	"srda/internal/lda"
	"srda/internal/mat"
)

// Algorithm names one of the four compared methods.
type Algorithm string

// The four algorithms of the paper's §IV-B.
const (
	AlgoLDA   Algorithm = "LDA"
	AlgoRLDA  Algorithm = "RLDA"
	AlgoSRDA  Algorithm = "SRDA"
	AlgoIDRQR Algorithm = "IDR/QR"
)

// Additional small-sample LDA-family algorithms the harness can run in
// the same grids (beyond the paper's comparison set).
const (
	AlgoOLDA        Algorithm = "OLDA"
	AlgoNLDA        Algorithm = "NLDA"
	AlgoMMC         Algorithm = "MMC"
	AlgoFisherfaces Algorithm = "Fisherfaces"
)

// AllAlgorithms is the paper's comparison set, in table order.
var AllAlgorithms = []Algorithm{AlgoLDA, AlgoRLDA, AlgoSRDA, AlgoIDRQR}

// Runner holds the experiment configuration.
type Runner struct {
	// Splits is the number of random train/test splits averaged (the
	// paper uses 20).
	Splits int
	// Alpha is the regularizer for RLDA and SRDA (the paper sets 1).
	Alpha float64
	// LSQRIter caps LSQR iterations for sparse SRDA (the paper sets 15).
	LSQRIter int
	// Seed makes runs reproducible.
	Seed int64
	// Workers bounds kernel and LSQR column-group parallelism in the
	// SRDA fits (0 = GOMAXPROCS, 1 = sequential).  Results are bitwise
	// identical at every setting, so timing columns are the only thing
	// it changes.
	Workers int
	// MemoryLimitBytes models the paper's 2 GB machine; algorithms whose
	// modeled footprint exceeds it are reported infeasible.  Zero means
	// 2 GB.
	MemoryLimitBytes float64
}

// Defaults fills in zero fields with the paper's settings.
func (r Runner) Defaults() Runner {
	if r.Splits == 0 {
		r.Splits = 20
	}
	if r.Alpha == 0 { //srdalint:ignore floatcmp zero is the documented unset sentinel for this option
		r.Alpha = 1
	}
	if r.LSQRIter == 0 {
		r.LSQRIter = 15
	}
	if r.MemoryLimitBytes == 0 { //srdalint:ignore floatcmp zero is the documented unset sentinel for this option
		r.MemoryLimitBytes = 2 << 30
	}
	return r
}

// Cell is one (train-size × algorithm) grid entry.
type Cell struct {
	// MeanErr and StdErr summarize the test error over splits (percent).
	MeanErr, StdErr float64
	// MeanTime is the mean training time in seconds.
	MeanTime float64
	// Feasible is false when the memory model says the algorithm cannot
	// run (the paper's "—" cells); the other fields are then zero.
	Feasible bool
}

// Grid is a full table: one row per training size, one column per
// algorithm.
type Grid struct {
	// Dataset names the corpus.
	Dataset string
	// RowLabels describes each training size ("10 × 68", "5%", ...).
	RowLabels []string
	// Algorithms orders the columns.
	Algorithms []Algorithm
	// Cells is indexed [row][column].
	Cells [][]Cell
}

// RunPerClassGrid reproduces the per-class-size protocol of Tables
// III–VIII: for every p in sizes, take p training samples per class.
func (r Runner) RunPerClassGrid(ds *dataset.Dataset, algos []Algorithm, sizes []int) (*Grid, error) {
	r = r.Defaults()
	g := &Grid{Dataset: ds.Name, Algorithms: algos}
	for _, p := range sizes {
		g.RowLabels = append(g.RowLabels, fmt.Sprintf("%d × %d", p, ds.NumClasses))
		row, err := r.runRow(ds, algos, func(rng *rand.Rand) (*dataset.Dataset, *dataset.Dataset, error) {
			return ds.SplitPerClass(rng, p)
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: size %d: %w", p, err)
		}
		g.Cells = append(g.Cells, row)
	}
	return g, nil
}

// RunFractionGrid reproduces the fraction protocol of Tables IX–X.
func (r Runner) RunFractionGrid(ds *dataset.Dataset, algos []Algorithm, fracs []float64) (*Grid, error) {
	r = r.Defaults()
	g := &Grid{Dataset: ds.Name, Algorithms: algos}
	for _, f := range fracs {
		g.RowLabels = append(g.RowLabels, fmt.Sprintf("%.0f%%", 100*f))
		frac := f
		row, err := r.runRow(ds, algos, func(rng *rand.Rand) (*dataset.Dataset, *dataset.Dataset, error) {
			return ds.SplitFraction(rng, frac)
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: fraction %v: %w", f, err)
		}
		g.Cells = append(g.Cells, row)
	}
	return g, nil
}

// runRow averages every algorithm over r.Splits random splits produced by
// the supplied splitter.
func (r Runner) runRow(ds *dataset.Dataset, algos []Algorithm,
	split func(*rand.Rand) (*dataset.Dataset, *dataset.Dataset, error)) ([]Cell, error) {

	sums := make([]struct {
		errs  []float64
		time  float64
		alive bool
	}, len(algos))
	for a := range sums {
		sums[a].alive = true
	}

	rng := rand.New(rand.NewSource(r.Seed))
	for s := 0; s < r.Splits; s++ {
		train, test, err := split(rng)
		if err != nil {
			return nil, err
		}
		for a, algo := range algos {
			if !sums[a].alive {
				continue
			}
			if !r.feasible(algo, train) {
				sums[a].alive = false
				continue
			}
			errRate, seconds, err := r.runOnce(algo, train, test)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", algo, err)
			}
			sums[a].errs = append(sums[a].errs, 100*errRate)
			sums[a].time += seconds
		}
	}

	row := make([]Cell, len(algos))
	for a := range algos {
		if !sums[a].alive || len(sums[a].errs) == 0 {
			continue
		}
		mean, std := meanStd(sums[a].errs)
		row[a] = Cell{
			MeanErr:  mean,
			StdErr:   std,
			MeanTime: sums[a].time / float64(len(sums[a].errs)),
			Feasible: true,
		}
	}
	return row, nil
}

// feasible applies the memory model of Table I to decide whether the
// algorithm fits the configured limit on this training set.
func (r Runner) feasible(algo Algorithm, train *dataset.Dataset) bool {
	p := flam.Problem{
		M: train.NumSamples(),
		N: train.NumFeatures(),
		C: train.NumClasses,
		K: r.LSQRIter,
		S: train.AvgNNZ(),
	}
	var bytes float64
	switch algo {
	case AlgoLDA:
		bytes = flam.LDA(p).Bytes()
	case AlgoRLDA:
		// RLDA additionally stores the n×t left singular matrix (the
		// paper: "the situation of RLDA is even worse").
		bytes = flam.LDA(p).Bytes() + 8*float64(p.N)*float64(p.T())
	case AlgoIDRQR:
		bytes = flam.IDRQR(p).Bytes()
	case AlgoOLDA, AlgoNLDA, AlgoMMC, AlgoFisherfaces:
		// same SVD-bound footprint as classical LDA
		bytes = flam.LDA(p).Bytes()
	case AlgoSRDA:
		if train.IsSparse() {
			bytes = flam.SRDALSQRSparse(p).Bytes()
		} else {
			bytes = flam.SRDANormal(p).Bytes()
		}
	default:
		return false
	}
	return bytes <= r.MemoryLimitBytes
}

// runOnce trains one algorithm on one split and returns its test error
// rate and training wall time.  Training time covers exactly the
// "computing the projection functions" work the paper times; embedding
// and classification are excluded.
func (r Runner) runOnce(algo Algorithm, train, test *dataset.Dataset) (float64, float64, error) {
	var (
		embTrain, embTest *mat.Dense
		seconds           float64
	)
	switch algo {
	case AlgoLDA, AlgoRLDA:
		alpha := 0.0
		if algo == AlgoRLDA {
			alpha = r.Alpha
		}
		xTrain, xTest := train.DenseView(), test.DenseView()
		start := time.Now()
		model, err := lda.Fit(xTrain, train.Labels, train.NumClasses, lda.Options{Alpha: alpha})
		seconds = time.Since(start).Seconds()
		if err != nil {
			return 0, 0, err
		}
		embTrain, embTest = model.Transform(xTrain), model.Transform(xTest)

	case AlgoIDRQR:
		xTrain, xTest := train.DenseView(), test.DenseView()
		start := time.Now()
		model, err := idrqr.Fit(xTrain, train.Labels, train.NumClasses, idrqr.Options{})
		seconds = time.Since(start).Seconds()
		if err != nil {
			return 0, 0, err
		}
		embTrain, embTest = model.Transform(xTrain), model.Transform(xTest)

	case AlgoOLDA, AlgoNLDA, AlgoMMC:
		xTrain, xTest := train.DenseView(), test.DenseView()
		start := time.Now()
		var (
			model *lda.Model
			err   error
		)
		switch algo {
		case AlgoOLDA:
			model, err = lda.FitOrthogonal(xTrain, train.Labels, train.NumClasses, lda.Options{Alpha: r.Alpha})
		case AlgoMMC:
			model, err = lda.FitMMC(xTrain, train.Labels, train.NumClasses, lda.Options{})
		default:
			model, err = lda.FitNullSpace(xTrain, train.Labels, train.NumClasses, lda.Options{})
		}
		seconds = time.Since(start).Seconds()
		if err != nil {
			return 0, 0, err
		}
		embTrain, embTest = model.Transform(xTrain), model.Transform(xTest)

	case AlgoFisherfaces:
		xTrain, xTest := train.DenseView(), test.DenseView()
		start := time.Now()
		model, err := lda.FitFisherfaces(xTrain, train.Labels, train.NumClasses, lda.FisherfacesOptions{Alpha: r.Alpha})
		seconds = time.Since(start).Seconds()
		if err != nil {
			return 0, 0, err
		}
		embTrain, embTest = model.Transform(xTrain), model.Transform(xTest)

	case AlgoSRDA:
		if train.IsSparse() {
			start := time.Now()
			model, err := core.FitSparseWhitened(train.Sparse, train.Labels, train.NumClasses,
				core.Options{Alpha: r.Alpha, LSQRIter: r.LSQRIter, Workers: r.Workers})
			seconds = time.Since(start).Seconds()
			if err != nil {
				return 0, 0, err
			}
			embTrain, embTest = model.TransformSparse(train.Sparse), model.TransformSparse(test.Sparse)
		} else {
			start := time.Now()
			model, err := core.FitDenseWhitened(train.Dense, train.Labels, train.NumClasses,
				core.Options{Alpha: r.Alpha, Workers: r.Workers})
			seconds = time.Since(start).Seconds()
			if err != nil {
				return 0, 0, err
			}
			embTrain, embTest = model.TransformDense(train.Dense), model.TransformDense(test.Dense)
		}

	default:
		return 0, 0, fmt.Errorf("experiment: unknown algorithm %q", algo)
	}

	nc, err := classify.FitNearestCentroid(embTrain, train.Labels, train.NumClasses)
	if err != nil {
		return 0, 0, err
	}
	pred := nc.Predict(embTest)
	return classify.ErrorRate(pred, test.Labels), seconds, nil
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	return mean, math.Sqrt(std / float64(len(xs)-1))
}
