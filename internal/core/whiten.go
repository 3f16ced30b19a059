package core

import (
	"fmt"
	"slices"

	"srda/internal/classify"
	"srda/internal/decomp"
	"srda/internal/mat"
	"srda/internal/sparse"
)

// WhitenWithin rescales the model so that the within-class scatter of the
// (training) embedding becomes the identity.  SRDA's raw directions are
// regression solutions against unit-norm responses: they span exactly the
// LDA subspace, but with a different within-subspace linear metric.
// Classical LDA reports coordinates in which the within-class Mahalanobis
// metric is Euclidean, which is what nearest-centroid / k-NN classifiers
// implicitly assume.  Whitening the embedding with the Cholesky factor of
// its within-class scatter (an O((c−1)³) post-step, the "optimal scoring"
// correction of Hastie et al.) makes SRDA's classification behavior match
// RLDA's — the paper's near-identical SRDA/RLDA error columns.
//
// The embedding emb must be the model's output on the training data whose
// labels are supplied.  The model is modified in place; on exact class
// collapse (the n > m regime, zero within-class scatter) it is left
// untouched since every metric then classifies identically.
func (m *Model) WhitenWithin(emb *mat.Dense, labels []int) error {
	if emb.Cols != m.Dim() {
		return fmt.Errorf("core: embedding has %d dims, model %d", emb.Cols, m.Dim())
	}
	rInv, err := WhiteningTransform(emb, labels, m.NumClasses)
	if err != nil {
		return err
	}
	if rInv == nil {
		return nil // exact collapse: nothing to do
	}
	d := m.Dim()
	m.W = mat.Mul(m.W, rInv)
	bNew := make([]float64, d)
	for j := 0; j < d; j++ {
		var s float64
		for i := 0; i <= j; i++ { // (R⁻ᵀ)[j][i] = R⁻¹[i][j]
			s += rInv.At(i, j) * m.B[i]
		}
		bNew[j] = s
	}
	m.B = bNew
	m.InvalidateCache() // W changed shape-preservingly; drop the stale Wᵀ
	// Stats-based centroids (the primal fit's) were computed under the old
	// metric; drop them so callers recompute in the whitened embedding.
	m.Centroids = nil
	return nil
}

// WhiteningTransform computes the upper-triangular-inverse map R⁻¹ that
// whitens an embedding's (shrinkage-regularized) within-class scatter:
// applying z ↦ R⁻ᵀz makes it the identity.  Returns nil on exact class
// collapse, where every metric classifies identically.  Shared by the
// linear (Model.WhitenWithin) and kernel SRDA paths.
func WhiteningTransform(emb *mat.Dense, labels []int, numClasses int) (*mat.Dense, error) {
	nc, err := classify.FitNearestCentroid(emb, labels, numClasses)
	if err != nil {
		return nil, err
	}
	if collapsed(emb, labels, numClasses) {
		return nil, nil
	}
	means := nc.Centroids
	d := emb.Cols
	// Within-class scatter of the embedding.
	sw := mat.NewDense(d, d)
	diff := make([]float64, d)
	for i, y := range labels {
		row := emb.RowView(i)
		mrow := means.RowView(y)
		for j := range row {
			diff[j] = row[j] - mrow[j]
		}
		for a := 0; a < d; a++ {
			if diff[a] == 0 { //srdalint:ignore floatcmp exact zero class-mean difference adds nothing to scatter
				continue
			}
			swr := sw.RowView(a)
			for b := 0; b < d; b++ {
				swr[b] += diff[a] * diff[b]
			}
		}
	}
	denom := float64(emb.Rows - numClasses)
	if denom < 1 {
		denom = 1
	}
	var trace float64
	for j := 0; j < d; j++ {
		trace += sw.At(j, j)
	}
	if trace == 0 { //srdalint:ignore floatcmp exact zero trace is the collapsed-embedding degenerate case
		// Every difference from a class mean underflowed: as collapsed.
		return nil, nil
	}
	// Shrink the scatter estimate toward a scaled identity.  With few
	// training samples per class the d×d within-scatter is poorly
	// estimated and its inverse would amplify noise directions; the
	// shrinkage intensity γ grows as the degrees of freedom per dimension
	// fall (a Ledoit–Wolf-style rule), vanishing in the well-sampled
	// regime.
	gamma := float64(d) / (float64(d) + denom)
	avg := trace / float64(d) / denom
	for a := 0; a < d; a++ {
		swr := sw.RowView(a)
		for b := 0; b < d; b++ {
			swr[b] = (1 - gamma) * swr[b] / denom
		}
		swr[a] += gamma*avg + 1e-12*avg
	}
	ch, err := decomp.NewCholesky(sw)
	if err != nil {
		return nil, fmt.Errorf("core: whitening scatter not positive definite: %w", err)
	}
	return upperInverse(ch.R), nil
}

// collapsed reports exact class collapse: every row equals the first row
// of its class, so the embedding already separates the classes on the
// training data and any whitening is a no-op for classification.  It
// compares rows, not rows with their class mean: a mean rounded in
// floating point need not equal the identical rows it averages.
func collapsed(emb *mat.Dense, labels []int, numClasses int) bool {
	first := make([]int, numClasses) // 1 + the index of each class's first row
	for i, y := range labels {
		if first[y] == 0 {
			first[y] = i + 1
		} else if !slices.Equal(emb.RowView(i), emb.RowView(first[y]-1)) {
			return false
		}
	}
	return true
}

// upperInverse inverts an upper-triangular matrix by back substitution.
func upperInverse(r *mat.Dense) *mat.Dense {
	n := r.Rows
	inv := mat.NewDense(n, n)
	for j := 0; j < n; j++ {
		inv.Set(j, j, 1/r.At(j, j))
		for i := j - 1; i >= 0; i-- {
			var s float64
			for k := i + 1; k <= j; k++ {
				s += r.At(i, k) * inv.At(k, j)
			}
			inv.Set(i, j, -s/r.At(i, i))
		}
	}
	return inv
}

// FitDenseWhitened trains SRDA and whitens the embedding against the
// training data — the configuration the experiment harness (and most
// users classifying in the embedded space) wants.
func FitDenseWhitened(x *mat.Dense, labels []int, numClasses int, opt Options) (*Model, error) {
	model, err := FitDense(x, labels, numClasses, opt)
	if err != nil {
		return nil, err
	}
	sp := opt.Span.StartChild("whiten")
	err = model.WhitenWithin(model.TransformDense(x), labels)
	sp.End()
	if err != nil {
		return nil, err
	}
	return model, nil
}

// FitSparseWhitened is the sparse counterpart of FitDenseWhitened.
func FitSparseWhitened(x *sparse.CSR, labels []int, numClasses int, opt Options) (*Model, error) {
	model, err := FitSparse(x, labels, numClasses, opt)
	if err != nil {
		return nil, err
	}
	sp := opt.Span.StartChild("whiten")
	err = model.WhitenWithin(model.TransformSparse(x), labels)
	sp.End()
	if err != nil {
		return nil, err
	}
	return model, nil
}
