// Package classify provides the classifiers the paper's evaluation
// protocol runs on top of the learned embeddings: nearest class centroid
// and k-nearest-neighbors, both in the (c−1)-dimensional discriminant
// space.  The error rates in Tables III–IX are produced by these.
package classify

import (
	"fmt"
	"math"
	"sort"

	"srda/internal/blas"
	"srda/internal/mat"
)

// NearestCentroid is a minimum-distance-to-class-mean classifier.
type NearestCentroid struct {
	// Centroids is c×d: one embedded class mean per row.
	Centroids *mat.Dense
}

// FitNearestCentroid computes class centroids from embedded training data.
func FitNearestCentroid(emb *mat.Dense, labels []int, numClasses int) (*NearestCentroid, error) {
	if emb.Rows != len(labels) {
		return nil, fmt.Errorf("classify: %d rows but %d labels", emb.Rows, len(labels))
	}
	cent := mat.NewDense(numClasses, emb.Cols)
	counts := make([]float64, numClasses)
	for i, y := range labels {
		if y < 0 || y >= numClasses {
			return nil, fmt.Errorf("classify: label %d out of range", y)
		}
		counts[y]++
		blas.Axpy(1, emb.RowView(i), cent.RowView(y))
	}
	for k := 0; k < numClasses; k++ {
		if counts[k] == 0 { //srdalint:ignore floatcmp counts hold exact integer increments; zero means an empty class
			return nil, fmt.Errorf("classify: class %d has no samples", k)
		}
		blas.Scal(1/counts[k], cent.RowView(k))
	}
	return &NearestCentroid{Centroids: cent}, nil
}

// Predict assigns each embedded row to the class with the closest
// centroid; it is PredictBatch.
func (nc *NearestCentroid) Predict(emb *mat.Dense) []int { return nc.PredictBatch(emb) }

// PredictBatch classifies every embedded row at once by lowering the
// per-row centroid-distance loops into a single GEMM: with G = emb·Cᵀ,
// argmin_k ||e_i − c_k||² = argmin_k (||c_k||² − 2·G[i][k]), so the whole
// batch costs one m×c matrix product plus an O(m·c) argmin sweep.  The
// result matches PredictVec on each row up to floating-point
// tie-breaking.
func (nc *NearestCentroid) PredictBatch(emb *mat.Dense) []int {
	if emb.Cols != nc.Centroids.Cols {
		panic(fmt.Sprintf("classify: PredictBatch dim mismatch: embedding has %d, centroids %d", emb.Cols, nc.Centroids.Cols))
	}
	out := make([]int, emb.Rows)
	if emb.Rows == 0 {
		return out
	}
	c := nc.Centroids.Rows
	cn := make([]float64, c)
	for k := 0; k < c; k++ {
		crow := nc.Centroids.RowView(k)
		cn[k] = blas.Dot(crow, crow)
	}
	g := mat.MulTB(emb, nc.Centroids)
	for i := 0; i < emb.Rows; i++ {
		grow := g.RowView(i)
		best, bestD := -1, math.Inf(1)
		for k := 0; k < c; k++ {
			if d := cn[k] - 2*grow[k]; d < bestD {
				best, bestD = k, d
			}
		}
		out[i] = best
	}
	return out
}

// PredictVec classifies a single embedded point.
func (nc *NearestCentroid) PredictVec(v []float64) int {
	best, bestD := -1, math.Inf(1)
	for k := 0; k < nc.Centroids.Rows; k++ {
		d := sqDist(v, nc.Centroids.RowView(k))
		if d < bestD {
			best, bestD = k, d
		}
	}
	return best
}

// KNN is a k-nearest-neighbors classifier over embedded training points.
type KNN struct {
	// K is the neighborhood size (1 reproduces the common 1-NN protocol).
	K      int
	points *mat.Dense
	labels []int
	c      int
}

// FitKNN stores the embedded training set.
func FitKNN(emb *mat.Dense, labels []int, numClasses, k int) (*KNN, error) {
	if emb.Rows != len(labels) {
		return nil, fmt.Errorf("classify: %d rows but %d labels", emb.Rows, len(labels))
	}
	if k < 1 {
		return nil, fmt.Errorf("classify: k must be >= 1, got %d", k)
	}
	if k > emb.Rows {
		k = emb.Rows
	}
	return &KNN{K: k, points: emb.Clone(), labels: append([]int(nil), labels...), c: numClasses}, nil
}

// Predict classifies each embedded row by majority vote of its K nearest
// training points (ties broken toward the nearer class).
func (knn *KNN) Predict(emb *mat.Dense) []int {
	out := make([]int, emb.Rows)
	for i := 0; i < emb.Rows; i++ {
		out[i] = knn.PredictVec(emb.RowView(i))
	}
	return out
}

type neighbor struct {
	dist  float64
	label int
}

// PredictVec classifies one embedded point.
func (knn *KNN) PredictVec(v []float64) int {
	nbrs := make([]neighbor, knn.points.Rows)
	for i := 0; i < knn.points.Rows; i++ {
		nbrs[i] = neighbor{sqDist(v, knn.points.RowView(i)), knn.labels[i]}
	}
	sort.Slice(nbrs, func(a, b int) bool { return nbrs[a].dist < nbrs[b].dist })
	votes := make([]int, knn.c)
	nearest := make([]float64, knn.c)
	for i := range nearest {
		nearest[i] = math.Inf(1)
	}
	for i := 0; i < knn.K; i++ {
		votes[nbrs[i].label]++
		if nbrs[i].dist < nearest[nbrs[i].label] {
			nearest[nbrs[i].label] = nbrs[i].dist
		}
	}
	best := 0
	for k := 1; k < knn.c; k++ {
		if votes[k] > votes[best] || (votes[k] == votes[best] && nearest[k] < nearest[best]) {
			best = k
		}
	}
	return best
}

// ErrorRate returns the fraction of predictions that differ from truth.
func ErrorRate(pred, truth []int) float64 {
	if len(pred) != len(truth) {
		panic("classify: prediction/truth length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	wrong := 0
	for i := range pred {
		if pred[i] != truth[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(len(pred))
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
