// Package regress implements multi-response ridge regression, the
// computational core of SRDA (§III of the paper).  Three solution
// strategies are provided, matching the paper's complexity analysis:
//
//   - Primal normal equations (eq. 20): factor XᵀX + αI once by Cholesky
//     (O(mn² + n³)) and back-solve for every response — best when n ≤ m.
//   - Dual normal equations (eq. 21): factor XXᵀ + αI (O(nm² + m³)) and
//     map back through Xᵀ — best when n > m (the pseudo-inverse route the
//     paper uses to cut cost for high-dimensional data).
//   - LSQR (§III-C2): k iterations of O(nnz) mat-vecs per response —
//     linear time for sparse data, and the only option when the Gram
//     matrix itself would not fit in memory.  The responses run in
//     lockstep, one column group per worker, so each iteration streams
//     X twice per group rather than twice per response.
//
// All strategies support the paper's intercept-absorption trick: append a
// constant-1 feature so the bias b is estimated jointly without centering
// the data (which would destroy sparsity).
package regress

import (
	"fmt"
	"math"

	"srda/internal/decomp"
	"srda/internal/mat"
	"srda/internal/obs"
	"srda/internal/solver"
)

// Strategy selects how the ridge systems are solved.
type Strategy int

const (
	// Auto picks Primal when n<=m, Dual when n>m for dense operators, and
	// LSQR for sparse operators.
	Auto Strategy = iota
	// Primal solves (XᵀX + αI) w = Xᵀy by Cholesky.
	Primal
	// Dual solves (XXᵀ + αI) z = y and sets w = Xᵀz.  For α→0 this is the
	// pseudo-inverse route of eq. (21); for α>0 it is exactly equivalent
	// to Primal by the push-through identity.
	Dual
	// IterLSQR runs damped LSQR on all responses in lockstep.
	IterLSQR
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Primal:
		return "primal"
	case Dual:
		return "dual"
	case IterLSQR:
		return "lsqr"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Resolve names the solver s runs on an m×n dense design: Auto becomes
// Primal when n ≤ m and Dual when n > m; every other strategy is itself.
// core's dense fit calls it too, so both layers pick the same solver.
func (s Strategy) Resolve(m, n int) Strategy {
	if s != Auto {
		return s
	}
	if n > m {
		return Dual
	}
	return Primal
}

// CheckAlpha refuses a negative ridge penalty, for every fit entry that
// takes one.
func CheckAlpha(alpha float64) error {
	if alpha < 0 {
		return fmt.Errorf("regress: negative alpha %v", alpha)
	}
	return nil
}

// Options configures a ridge fit.
type Options struct {
	// Alpha is the Tikhonov penalty (the paper's α); must be >= 0.
	Alpha float64
	// Strategy selects the solver; Auto by default.
	Strategy Strategy
	// Intercept, when true, augments X with a constant-1 column and fits
	// the bias jointly (the paper's trick for sparse data).  The bias is
	// returned separately from the weights.
	Intercept bool
	// LSQRIter caps LSQR iterations per response (default 30; the paper
	// uses 15–20).
	LSQRIter int
	// Workers bounds the parallelism of the whole fit: the worker-pool
	// sharding inside the Gram/product kernels of the direct paths, and
	// in the LSQR path the column groups of responses, one lockstep solve
	// per worker (see solver.ParLockstepLSQR).  All settings produce
	// bitwise-identical models (see internal/pool).
	// 0 means GOMAXPROCS; 1 forces fully sequential work.
	Workers int
	// Span, when non-nil, is the parent of the per-phase timing spans
	// ("gram", "xty", "cholesky", "solve" for the direct paths; "lsqr" for
	// the iterative path).  The fit itself never reads a clock — all
	// timing lives in the caller's tracer, keeping this package inside
	// the noclock contract.  nil disables tracing at zero cost.
	Span *obs.ReqSpan
}

// Stats reports how a fit was solved.  Unlike the model weights it is
// advisory telemetry: it never feeds back into predictions and is not
// serialized with the model.
type Stats struct {
	// Strategy is the solver that actually ran (never Auto).
	Strategy Strategy
	// Iters is the total LSQR iteration count summed over responses; zero
	// for the direct (Cholesky) paths.  Always equal to the sum of
	// IterCounts when IterCounts is present.
	Iters int
	// IterCounts[j] is the LSQR iteration count for response j; nil for
	// direct solves.
	IterCounts []int
	// Residuals[j] is response j's final damped residual-norm estimate
	// ‖[A; √α·I] x − [y_j; 0]‖; nil for direct solves.
	Residuals []float64
	// CondEstimate is the diagonal-ratio condition estimate of the factored
	// normal-equations matrix (decomp.Cholesky.CondEstimate); zero for the
	// LSQR path, which never forms the Gram matrix.
	CondEstimate float64
}

// Model is a fitted multi-response ridge regressor: Yhat = X·W + 1·bᵀ.
type Model struct {
	// W is n×k: one weight column per response.
	W *mat.Dense
	// B holds the k intercepts (all zero when fitted without intercept).
	B []float64
	// Strategy records which solver produced the fit.
	Strategy Strategy
	// Iters is the total LSQR iteration count (zero for direct solves);
	// always equal to Stats.Iters.
	Iters int
	// Stats carries the full solver telemetry for the fit.
	Stats Stats
}

// FitDense fits ridge regression of the m×k response matrix Y on the m×n
// dense design matrix X.
func FitDense(x *mat.Dense, y *mat.Dense, opt Options) (*Model, error) {
	if x.Rows != y.Rows {
		return nil, fmt.Errorf("regress: X has %d rows but Y has %d", x.Rows, y.Rows)
	}
	if err := CheckAlpha(opt.Alpha); err != nil {
		return nil, err
	}
	switch strat := opt.Strategy.Resolve(x.Rows, x.Cols); strat {
	case Primal:
		return fitPrimal(x, y, opt)
	case Dual:
		return fitDual(x, y, opt)
	case IterLSQR:
		return FitOperator(solver.DenseOp{A: x, Workers: opt.Workers}, y, opt)
	default:
		return nil, fmt.Errorf("regress: unknown strategy %v", strat)
	}
}

// FitOperator fits ridge regression through an abstract operator using
// LSQR; this is the linear-time sparse path.  The Strategy option is
// ignored (always LSQR).
func FitOperator(op solver.Operator, y *mat.Dense, opt Options) (*Model, error) {
	m, n := op.Dims()
	if m != y.Rows {
		return nil, fmt.Errorf("regress: operator has %d rows but Y has %d", m, y.Rows)
	}
	if err := CheckAlpha(opt.Alpha); err != nil {
		return nil, err
	}
	work := op
	if opt.Intercept {
		work = solver.AugmentedOp{Inner: op}
	}
	k := y.Cols
	params := solver.LSQRParams{Damp: math.Sqrt(opt.Alpha), MaxIter: opt.LSQRIter}

	// The responses are independent ridge systems over one read-only
	// operator, solved in lockstep in one column group per worker: each
	// LSQR iteration streams the operator once forward and once transposed
	// for all the responses of a group.  The solution block is row-major
	// n×k (plus the intercept row), which is exactly W's storage.
	b := y.Data[:m*k]
	if y.Stride != k {
		b = y.Clone().Data
	}
	lsqrSpan := opt.Span.StartChild("lsqr")
	res := solver.ParLockstepLSQR(opt.Workers, work, k, b, params)
	lsqrSpan.End()
	model := &Model{W: mat.NewDenseData(n, k, res.X[:n*k:n*k]), B: make([]float64, k), Strategy: IterLSQR}
	if opt.Intercept {
		copy(model.B, res.X[n*k:])
	}
	total := 0
	for _, c := range res.Iters {
		total += c
	}
	model.Iters = total
	model.Stats = Stats{Strategy: IterLSQR, Iters: total, IterCounts: res.Iters, Residuals: res.ResNorms}
	return model, nil
}

// fitPrimal implements eq. (20): one Cholesky of the (n+1)×(n+1)
// (augmented) Gram matrix shared by all responses.
func fitPrimal(x *mat.Dense, y *mat.Dense, opt Options) (*Model, error) {
	xa := augment(x, opt.Intercept)
	n := xa.Cols
	sp := opt.Span.StartChild("gram")
	g := mat.ParGram(opt.Workers, xa)
	sp.End()
	for i := 0; i < n; i++ {
		g.Set(i, i, g.At(i, i)+opt.Alpha)
	}
	sp = opt.Span.StartChild("cholesky")
	ch, err := decomp.ParCholesky(opt.Workers, g)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("regress: normal equations not positive definite (alpha=%v): %w", opt.Alpha, err)
	}
	sp = opt.Span.StartChild("xty")
	xty := mat.ParMulTA(opt.Workers, xa, y)
	sp.End()
	sp = opt.Span.StartChild("solve")
	w := ch.Solve(xty)
	sp.End()
	model := splitIntercept(w, opt.Intercept, Primal)
	model.Stats.CondEstimate = ch.CondEstimate()
	return model, nil
}

// fitDual implements eq. (21): factor the m×m matrix XXᵀ + αI, solve for
// each response, then map back through Xᵀ.  Identical solution to
// fitPrimal for α>0 (push-through identity); pseudo-inverse limit as α→0.
func fitDual(x *mat.Dense, y *mat.Dense, opt Options) (*Model, error) {
	xa := augment(x, opt.Intercept)
	m := xa.Rows
	sp := opt.Span.StartChild("gram")
	g := mat.ParGramT(opt.Workers, xa)
	sp.End()
	alpha := opt.Alpha
	if alpha == 0 { //srdalint:ignore floatcmp exact zero alpha selects the pseudo-inverse route of eq. 21
		// A tiny ridge keeps the factorization defined when rows are
		// dependent; mirrors the α→0 limit of Theorem 2.
		alpha = 1e-12 * (1 + g.Norm())
	}
	for i := 0; i < m; i++ {
		g.Set(i, i, g.At(i, i)+alpha)
	}
	sp = opt.Span.StartChild("cholesky")
	ch, err := decomp.ParCholesky(opt.Workers, g)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("regress: dual system not positive definite (alpha=%v): %w", opt.Alpha, err)
	}
	sp = opt.Span.StartChild("solve")
	z := ch.Solve(y)
	sp.End()
	sp = opt.Span.StartChild("xty")
	w := mat.ParMulTA(opt.Workers, xa, z)
	sp.End()
	model := splitIntercept(w, opt.Intercept, Dual)
	model.Stats.CondEstimate = ch.CondEstimate()
	return model, nil
}

// augment appends a constant-1 column when intercept is requested.
func augment(x *mat.Dense, intercept bool) *mat.Dense {
	if !intercept {
		return x
	}
	return Augment(x)
}

// Augment appends the constant-1 intercept column of the paper's
// intercept-absorption trick: row i of the result is [xᵢ, 1].
func Augment(x *mat.Dense) *mat.Dense {
	xa := mat.NewDense(x.Rows, x.Cols+1)
	for i := 0; i < x.Rows; i++ {
		row := xa.RowView(i)
		copy(row, x.RowView(i))
		row[x.Cols] = 1
	}
	return xa
}

// splitIntercept separates the trailing intercept row of the stacked
// solution when present.
func splitIntercept(w *mat.Dense, intercept bool, strat Strategy) *Model {
	k := w.Cols
	if !intercept {
		return &Model{W: w, B: make([]float64, k), Strategy: strat, Stats: Stats{Strategy: strat}}
	}
	n := w.Rows - 1
	model := &Model{W: w.Slice(0, n, 0, k).Clone(), B: make([]float64, k), Strategy: strat, Stats: Stats{Strategy: strat}}
	for j := 0; j < k; j++ {
		model.B[j] = w.At(n, j)
	}
	return model
}
