package decomp

import (
	"math"

	"srda/internal/blas"
	"srda/internal/mat"
)

// QR holds a Householder QR factorization of an m×n matrix A (m >= n is
// typical but not required): A = Q*R with Q m×m orthogonal and R m×n upper
// triangular.  The factorization is stored compactly: the Householder
// vectors live below the diagonal of qr and R on and above it.
type QR struct {
	qr   *mat.Dense // compact storage
	tau  []float64  // Householder scalars
	m, n int
}

// NewQR factors A (which is left unmodified).
func NewQR(a *mat.Dense) *QR {
	m, n := a.Rows, a.Cols
	f := &QR{qr: a.Clone(), tau: make([]float64, min(m, n)), m: m, n: n}
	work := make([]float64, n)
	for k := 0; k < len(f.tau); k++ {
		// Build the Householder reflector for column k from row k down.
		colNorm := 0.0
		for i := k; i < m; i++ {
			v := f.qr.At(i, k)
			colNorm = math.Hypot(colNorm, v)
		}
		if colNorm == 0 { //srdalint:ignore floatcmp an exactly zero column norm has no reflector
			f.tau[k] = 0
			continue
		}
		alpha := f.qr.At(k, k)
		if alpha > 0 {
			colNorm = -colNorm
		}
		// v = x - colNorm*e1, normalized so v[0] = 1.
		v0 := alpha - colNorm
		f.qr.Set(k, k, colNorm)
		for i := k + 1; i < m; i++ {
			f.qr.Set(i, k, f.qr.At(i, k)/v0)
		}
		f.tau[k] = -v0 / colNorm
		// Apply (I - tau v vᵀ) to the trailing columns.
		if k+1 < n {
			nw := n - k - 1
			w := work[:nw]
			for j := range w {
				w[j] = 0
			}
			// w = vᵀ * A[k:, k+1:]
			for i := k; i < m; i++ {
				vi := 1.0
				if i > k {
					vi = f.qr.At(i, k)
				}
				blas.Axpy(vi, f.qr.RowView(i)[k+1:n], w)
			}
			// A[k:, k+1:] -= tau * v * wᵀ
			for i := k; i < m; i++ {
				vi := 1.0
				if i > k {
					vi = f.qr.At(i, k)
				}
				blas.Axpy(-f.tau[k]*vi, w, f.qr.RowView(i)[k+1:n])
			}
		}
	}
	return f
}

// R returns the min(m,n)×n upper-triangular factor (the "thin" R).
func (f *QR) R() *mat.Dense {
	k := min(f.m, f.n)
	r := mat.NewDense(k, f.n)
	for i := 0; i < k; i++ {
		copy(r.RowView(i)[i:], f.qr.RowView(i)[i:f.n])
	}
	return r
}

// ThinQ returns the m×min(m,n) orthonormal factor Q₁ with A = Q₁R.
func (f *QR) ThinQ() *mat.Dense {
	k := min(f.m, f.n)
	q := mat.NewDense(f.m, k)
	for j := 0; j < k; j++ {
		q.Set(j, j, 1)
	}
	// Apply H_k ... H_1 to the identity columns: Q = H_0 H_1 ... H_{k-1} I.
	for j := k - 1; j >= 0; j-- {
		f.applyReflector(j, q)
	}
	return q
}

// applyReflector applies (I - tau_j v_j v_jᵀ) to all columns of B in place,
// where B has f.m rows.
func (f *QR) applyReflector(j int, b *mat.Dense) {
	tau := f.tau[j]
	if tau == 0 { //srdalint:ignore floatcmp tau is set to exactly 0 for skipped reflectors
		return
	}
	w := make([]float64, b.Cols)
	for i := j; i < f.m; i++ {
		vi := 1.0
		if i > j {
			vi = f.qr.At(i, j)
		}
		blas.Axpy(vi, b.RowView(i), w)
	}
	for i := j; i < f.m; i++ {
		vi := 1.0
		if i > j {
			vi = f.qr.At(i, j)
		}
		blas.Axpy(-tau*vi, w, b.RowView(i))
	}
}

// GramSchmidt orthonormalizes the columns of A in place using modified
// Gram–Schmidt with one reorthogonalization pass, returning the number of
// independent columns kept.  Columns that are (numerically) dependent on
// earlier ones are zeroed.  This is the routine SRDA's responses-generation
// step uses (eq. 15–16 of the paper).
func GramSchmidt(a *mat.Dense, tol float64) int {
	m, n := a.Rows, a.Cols
	col := make([]float64, m)
	kept := 0
	for j := 0; j < n; j++ {
		a.ColCopy(j, col)
		orig := blas.Nrm2(col)
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < j; k++ {
				// project out column k (already unit or zero)
				var dot float64
				for i := 0; i < m; i++ {
					dot += a.At(i, k) * col[i]
				}
				if dot == 0 { //srdalint:ignore floatcmp exact zero dot contributes nothing to reorthogonalization
					continue
				}
				for i := 0; i < m; i++ {
					col[i] -= dot * a.At(i, k)
				}
			}
		}
		nrm := blas.Nrm2(col)
		if orig == 0 || nrm <= tol*orig { //srdalint:ignore floatcmp exact zero original norm marks the dependent column
			for i := 0; i < m; i++ {
				col[i] = 0
			}
		} else {
			blas.Scal(1/nrm, col)
			kept++
		}
		a.SetCol(j, col)
	}
	return kept
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
