// Package decomp implements the dense matrix decompositions the SRDA
// pipeline and its baselines need: Cholesky factorization (normal
// equations, eq. 20–21 of the paper), Householder QR (IDR/QR baseline and
// orthogonalization), a symmetric eigensolver (Householder tridiagonal
// reduction followed by implicit-shift QL iteration), and the
// cross-product SVD described in §II-B of the paper.  Everything is
// stdlib-only float64.
package decomp

import (
	"errors"
	"math"

	"srda/internal/blas"
	"srda/internal/mat"
	"srda/internal/pool"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("decomp: matrix is not positive definite")

// Cholesky holds the upper-triangular factor R of A = RᵀR for a symmetric
// positive definite A.
type Cholesky struct {
	// R is upper triangular with positive diagonal; entries below the
	// diagonal are zero.
	R *mat.Dense
}

// NewCholesky factors the symmetric positive definite n×n matrix A on
// the calling goroutine: ParCholesky(1, a).  Only the upper triangle of A
// is read.  It returns ErrNotPositiveDefinite when a non-positive pivot
// is encountered.
func NewCholesky(a *mat.Dense) (*Cholesky, error) { return ParCholesky(1, a) }

// cholPanel is the number of pivot rows ParCholesky factors before it
// applies them to the trailing rows: one pool fork per 32 pivots rather
// than one per pivot, and each trailing row takes the panel's 32 updates
// while it sits in cache.
const cholPanel = 32

// parMinFlops mirrors the internal/mat threshold: trailing updates below
// ~32Ki multiply-adds are not worth a pool handoff and run inline.
const parMinFlops = 1 << 15

// ParCholesky factors A like NewCholesky with the trailing updates
// sharded across the worker pool (workers <= 0 means GOMAXPROCS, 1 runs
// on the caller).  The sweep is right-looking and blocked in panels of
// cholPanel pivot rows: the panel's own rows are factored in place, then
// every trailing row i takes the panel's Axpys in ascending pivot order.
// Trailing rows are independent and row i holds n−i entries, so they are
// sharded by equal area (pool.DoUpper).  Every element of R receives the
// same operations in the same order as in the unblocked sweep, whatever
// the panel width or worker count, so the factor is bitwise identical to
// NewCholesky's.
func ParCholesky(workers int, a *mat.Dense) (*Cholesky, error) {
	return parCholesky(workers, cholPanel, a)
}

// parCholesky is ParCholesky with the panel width as a parameter, so the
// equivalence tests can sweep it.
func parCholesky(workers, panel int, a *mat.Dense) (*Cholesky, error) {
	n := a.Rows
	if a.Cols != n {
		panic("decomp: Cholesky of non-square matrix")
	}
	r := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		copy(r.RowView(i)[i:], a.RowView(i)[i:])
	}
	// One closure for every panel: pool.DoUpper returns only after all
	// spans finish, so the loop may move k0 and k1 between calls.
	var k0, k1 int
	trail := func(lo, hi int) { cholTrailRange(r, k0, k1, k1+lo, k1+hi) }
	for ; k0 < n; k0 = k1 {
		k1 = min(k0+panel, n)
		for k := k0; k < k1; k++ {
			rk := r.RowView(k)
			d := rk[k]
			if d <= 0 || math.IsNaN(d) {
				return nil, ErrNotPositiveDefinite
			}
			d = math.Sqrt(d)
			rk[k] = d
			inv := 1 / d
			for j := k + 1; j < n; j++ {
				rk[j] *= inv
			}
			for i := k + 1; i < k1; i++ {
				blas.Axpy(-rk[i], rk[i:], r.RowView(i)[i:])
			}
		}
		t := n - k1
		if workers == 1 || (k1-k0)*t*(t+1)/2 < parMinFlops {
			cholTrailRange(r, k0, k1, k1, n)
			continue
		}
		pool.DoUpper(workers, t, trail)
	}
	return &Cholesky{R: r}, nil
}

// cholTrailRange applies the factored panel rows [k0, k1) to the trailing
// rows [ilo, ihi): row i takes one Axpy per pivot k, in ascending k,
// exactly the updates the unblocked sweep gives it at steps k0..k1−1.
func cholTrailRange(r *mat.Dense, k0, k1, ilo, ihi int) {
	for i := ilo; i < ihi; i++ {
		ri := r.RowView(i)[i:]
		for k := k0; k < k1; k++ {
			rk := r.RowView(k)
			blas.Axpy(-rk[i], rk[i:], ri)
		}
	}
}

// SolveVec solves A x = b in place of dst (allocated when nil) via the two
// triangular solves Rᵀ y = b, R x = y.
func (c *Cholesky) SolveVec(b, dst []float64) []float64 {
	n := c.R.Rows
	if len(b) != n {
		panic("decomp: SolveVec length mismatch")
	}
	if dst == nil {
		dst = make([]float64, n)
	}
	copy(dst, b)
	// Forward substitution with Rᵀ (lower triangular): y[i] =
	// (b[i] - Σ_{k<i} R[k][i] y[k]) / R[i][i].  Iterate k outer so each
	// computed y[k] is scattered along row k of R — unit-stride.
	for k := 0; k < n; k++ {
		rk := c.R.RowView(k)
		dst[k] /= rk[k]
		blas.Axpy(-dst[k], rk[k+1:], dst[k+1:])
	}
	// Back substitution with R (upper triangular).
	for i := n - 1; i >= 0; i-- {
		ri := c.R.RowView(i)
		s := dst[i] - blas.Dot(ri[i+1:], dst[i+1:])
		dst[i] = s / ri[i]
	}
	return dst
}

// Solve solves A X = B column by column, returning a new matrix.
func (c *Cholesky) Solve(b *mat.Dense) *mat.Dense {
	n := c.R.Rows
	if b.Rows != n {
		panic("decomp: Solve dimension mismatch")
	}
	x := mat.NewDense(n, b.Cols)
	col := make([]float64, n)
	out := make([]float64, n)
	for j := 0; j < b.Cols; j++ {
		b.ColCopy(j, col)    //srdalint:ignore hotalloc col is preallocated in the prologue; ColCopy's make runs only on its nil-dst convenience path
		c.SolveVec(col, out) //srdalint:ignore hotalloc out is preallocated in the prologue; SolveVec's make runs only on its nil-dst convenience path
		x.SetCol(j, out)
	}
	return x
}

// CondEstimate returns a cheap 2-norm condition-number estimate of the
// factored matrix A = RᵀR: (max_i R_ii / min_i R_ii)².  The diagonal of
// the Cholesky factor brackets A's spectrum — max R_ii² ≤ λ_max and
// min R_ii² ≥ λ_min / n — so the square of the diagonal ratio tracks
// κ₂(A) to within a factor of n, which is all the refit health gauges
// need (they watch orders of magnitude, not digits).  Returns 1 for an
// empty factor.
func (c *Cholesky) CondEstimate() float64 {
	n := c.R.Rows
	if n == 0 {
		return 1
	}
	lo, hi := c.R.At(0, 0), c.R.At(0, 0)
	for i := 1; i < n; i++ {
		d := c.R.At(i, i)
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	r := hi / lo
	return r * r
}

// SolveUpperTranspose solves Rᵀ·X = B for upper-triangular R by forward
// substitution, returning a new matrix.
func SolveUpperTranspose(r *mat.Dense, b *mat.Dense) *mat.Dense {
	n := r.Rows
	x := b.Clone()
	for i := 0; i < n; i++ {
		ri := r.RowView(i)
		xi := x.RowView(i)
		blas.Scal(1/ri[i], xi)
		for k := i + 1; k < n; k++ {
			blas.Axpy(-ri[k], xi, x.RowView(k))
		}
	}
	return x
}

// SolveUpperVec solves R·x = v in place for upper-triangular R.
func SolveUpperVec(r *mat.Dense, v []float64) {
	n := r.Rows
	for i := n - 1; i >= 0; i-- {
		ri := r.RowView(i)
		s := v[i] - blas.Dot(ri[i+1:], v[i+1:])
		v[i] = s / ri[i]
	}
}
