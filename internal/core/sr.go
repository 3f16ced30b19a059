package core

import (
	"fmt"
	"math"

	"srda/internal/blas"
	"srda/internal/decomp"
	"srda/internal/graph"
	"srda/internal/mat"
	"srda/internal/regress"
	"srda/internal/solver"
)

// SROptions configures generalized Spectral Regression (the paper's
// closing generalization: swap the supervised class graph for any
// affinity graph and keep the regression machinery).
type SROptions struct {
	// Dim is the number of embedding dimensions to extract (for the
	// supervised class graph, c−1 recovers SRDA exactly).
	Dim int
	// Alpha is the ridge penalty of the regression step.
	Alpha float64
	// Strategy selects the regression solver (Auto by default).
	Strategy regress.Strategy
	// LSQRIter and Workers configure the iterative path.
	LSQRIter, Workers int
	// EigTol is the Lanczos convergence tolerance (default 1e-8).
	EigTol float64
	// Seed fixes the eigensolver start vectors.
	Seed int64
}

// FitSRDense runs generalized Spectral Regression on dense data:
//
//  1. Spectral step — the top Dim+1 eigenvectors of the graph's
//     normalized adjacency D^{-1/2}WD^{-1/2} are computed with the
//     deflated Lanczos solver (the +1 covers the trivial all-ones
//     direction, which is then projected out).
//  2. Regression step — each remaining response is ridge-regressed onto
//     the features with the intercept trick, exactly as in SRDA.
//
// With g = graph.ClassGraph(labels, c) and Dim = c−1 this reproduces
// SRDA's subspace; with a k-NN graph it is unsupervised spectral
// embedding made linear; with graph.SemiSupervised it implements
// semi-supervised discriminant analysis.
func FitSRDense(x *mat.Dense, g *graph.Graph, opt SROptions) (*Model, error) {
	if g.Size() != x.Rows {
		return nil, fmt.Errorf("core: graph has %d vertices but data %d rows", g.Size(), x.Rows)
	}
	y, err := srResponses(g, opt)
	if err != nil {
		return nil, err
	}
	rm, err := regress.FitDense(x, y, regress.Options{
		Alpha:     opt.Alpha,
		Strategy:  opt.Strategy,
		Intercept: true,
		LSQRIter:  opt.LSQRIter,
		Workers:   opt.Workers,
	})
	if err != nil {
		return nil, err
	}
	return fromRegress(rm, opt.Dim+1, opt.Alpha, opt.Workers), nil
}

// FitSROperator is the matrix-free counterpart of FitSRDense (LSQR only).
func FitSROperator(op solver.Operator, g *graph.Graph, opt SROptions) (*Model, error) {
	m, _ := op.Dims()
	if g.Size() != m {
		return nil, fmt.Errorf("core: graph has %d vertices but operator %d rows", g.Size(), m)
	}
	y, err := srResponses(g, opt)
	if err != nil {
		return nil, err
	}
	rm, err := regress.FitOperator(op, y, regress.Options{
		Alpha:     opt.Alpha,
		Intercept: true,
		LSQRIter:  opt.LSQRIter,
		Workers:   opt.Workers,
	})
	if err != nil {
		return nil, err
	}
	return fromRegress(rm, opt.Dim+1, opt.Alpha, opt.Workers), nil
}

// srResponses runs the spectral step: eigenvectors of the normalized
// adjacency, mapped back through D^{-1/2}, orthogonalized against the
// all-ones vector (taken first, as in eq. 15–16) and dropped.
func srResponses(g *graph.Graph, opt SROptions) (*mat.Dense, error) {
	if opt.Dim < 1 {
		return nil, fmt.Errorf("core: SR needs Dim >= 1")
	}
	m := g.Size()
	if opt.Dim >= m {
		return nil, fmt.Errorf("core: Dim %d too large for %d samples", opt.Dim, m)
	}
	tol := opt.EigTol
	if tol <= 0 {
		tol = 1e-8
	}
	res, err := solver.LanczosDeflated(g.Normalized(), opt.Dim+1, tol, opt.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("core: spectral step: %w", err)
	}
	k := res.Vectors.Cols

	// Map u → y = D^{-1/2} u (vertices with zero degree stay zero).
	ys := mat.NewDense(m, k)
	col := make([]float64, m)
	for j := 0; j < k; j++ {
		res.Vectors.ColCopy(j, col)
		for i := 0; i < m; i++ {
			if d := g.Degrees[i]; d > 0 {
				col[i] /= math.Sqrt(d)
			} else {
				col[i] = 0
			}
		}
		ys.SetCol(j, col)
	}

	// Ones-first Gram–Schmidt, then drop the ones column and any columns
	// that collapse (e.g. the trivial eigenvector, which is parallel to
	// the ones vector on connected graphs).
	cand := mat.NewDense(m, k+1)
	ones := make([]float64, m)
	for i := range ones {
		ones[i] = 1
	}
	cand.SetCol(0, ones)
	for j := 0; j < k; j++ {
		cand.SetCol(j+1, ys.ColCopy(j, col))
	}
	decomp.GramSchmidt(cand, 1e-8)
	var kept [][]float64
	for j := 1; j < k+1 && len(kept) < opt.Dim; j++ {
		c := cand.ColCopy(j, nil)
		if blas.Nrm2(c) > 0.5 { // GramSchmidt zeroes dependent columns
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("core: spectral step produced no nontrivial responses")
	}
	y := mat.NewDense(m, len(kept))
	for j, c := range kept {
		y.SetCol(j, c)
	}
	return y, nil
}
