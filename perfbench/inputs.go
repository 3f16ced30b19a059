package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"srda/internal/core"
	"srda/internal/dataset"
)

// Input shapes.  Everything a workload feeds the program is generated here
// from the workload seed before any clock starts.
//
// Both the text corpus and the MNIST-like images come from a generator
// whose classes (topic words, prototypes) are drawn from geometrySeed; the
// workload seed draws the training rows and the held-out rows from it.
// With the classes drawn per seed as well, the held-out error of fit-dense
// swings between 1% and 5% from seed to seed and that of fit-sparse by
// ±10%, which would drown a real change in holdout_error_pct.
const (
	alpha        = 1.0
	geometrySeed = 1

	// fit-sparse: NewsLike text, 20 classes; a quarter of the 12000
	// documents train (3000 docs × 20k terms, ~230k non-zeros) and the
	// rest are held out.
	newsClasses = 20
	newsDocs    = 12000
	newsTrain   = 0.25
	newsVocab   = 20000
	lsqrIter    = 15

	// The dense workloads: MNIST-like rows with 784 features.  ProtoMix 0.8
	// puts the held-out error near 11%, far enough from 0 for its spread to
	// be small.
	denseClasses  = 10
	densePerClass = 1500
	denseProtoMix = 0.8
	trainPerClass = 150 // 1500 training rows, m > n: the primal path
	denseFeatures = 28 * 28
	// denseHoldout caps the rows fit-dense classifies after each fit.
	denseHoldout = 9000
)

// Correctness bounds on the held-out error, per workload, in percent.
// Seeds 1 and 2 give 16.6% and 16.3% (fit-sparse), 10.8% and 10.8%
// (fit-dense), 10.5% and 10.8% (serve-bulk) and 6.3% and 6.7%
// (serve-online); a bound well above those catches a broken fit without
// tripping on seed-to-seed spread.
const (
	maxSparseErrPct = 25
	maxDenseErrPct  = 20
	maxServeErrPct  = 20
)

// newsSplit draws the seed's training documents and held-out documents
// from the fixed corpus.
func newsSplit(seed int64) (train, test *dataset.Dataset, err error) {
	ds := dataset.NewsLike(dataset.NewsConfig{Classes: newsClasses, Docs: newsDocs, Vocab: newsVocab, Seed: geometrySeed})
	return ds.SplitFraction(rand.New(rand.NewSource(seed)), newsTrain)
}

// denseSplit draws the seed's training rows (trainPerClass per class) and
// its held-out rows, shuffled so classes interleave, from the fixed pool.
func denseSplit(seed int64) (train, test *dataset.Dataset, err error) {
	pool := dataset.MNISTLike(dataset.MNISTConfig{
		Classes: denseClasses, PerClass: densePerClass, Seed: geometrySeed, ProtoMix: denseProtoMix,
	})
	rng := rand.New(rand.NewSource(seed))
	train, test, err = pool.SplitPerClass(rng, trainPerClass)
	if err != nil {
		return nil, nil, err
	}
	return train, test.Subset(rng.Perm(test.NumSamples())), nil
}

// writeLibSVM writes ds as a libsvm training file in dir.
func writeLibSVM(dir, name string, ds *dataset.Dataset) (string, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := ds.WriteLibSVM(w); err != nil {
		_ = f.Close() // the write error is the one to report
		return "", err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return "", err
	}
	return path, f.Close()
}

// readLibSVM parses a training file into the program's dataset.
func readLibSVM(path string, numFeatures int) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only
	return dataset.ReadLibSVM(bufio.NewReader(f), numFeatures)
}

// sameModel reports whether two models are bitwise equal in everything
// prediction reads: W, B, the class count and the centroids.
func sameModel(a, b *core.Model) bool {
	if a.NumClasses != b.NumClasses || !sameBits(a.B, b.B) {
		return false
	}
	if a.W.Rows != b.W.Rows || a.W.Cols != b.W.Cols {
		return false
	}
	for i := 0; i < a.W.Rows; i++ {
		if !sameBits(a.W.RowView(i), b.W.RowView(i)) {
			return false
		}
	}
	if (a.Centroids == nil) != (b.Centroids == nil) {
		return false
	}
	if a.Centroids != nil {
		if a.Centroids.Rows != b.Centroids.Rows {
			return false
		}
		for i := 0; i < a.Centroids.Rows; i++ {
			if !sameBits(a.Centroids.RowView(i), b.Centroids.RowView(i)) {
				return false
			}
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// errorPct is the percentage of predictions that miss their label.
func errorPct(pred, truth []int) float64 {
	bad := 0
	for i := range truth {
		if pred[i] != truth[i] {
			bad++
		}
	}
	return 100 * float64(bad) / float64(len(truth))
}

// checkClasses validates a reply's classes against the expected ones.
func checkClasses(got, want []int) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d classes for %d samples", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("sample %d: class %d, expected %d", i, got[i], want[i])
		}
	}
	return ""
}
