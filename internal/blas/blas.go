// Package blas provides the low-level dense linear-algebra kernels used by
// every other package in this repository: level-1 vector operations (dot,
// axpy, scal, nrm2), level-2 matrix-vector products, and a blocked level-3
// matrix-matrix product.
//
// All matrices are float64 and stored row-major with an explicit leading
// dimension (stride), which lets callers pass sub-matrix views without
// copying.  The kernels are written with 4-way manual unrolling; on the
// matrix sizes this project cares about (hundreds to tens of thousands of
// rows/columns) that is within a small factor of what a tuned BLAS would
// deliver while staying pure, dependency-free Go.
package blas

import "math"

// Dot returns the inner product x·y of two equal-length vectors.
// It panics if the lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("blas: vector length mismatch in Dot")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// Axpy computes y += alpha*x elementwise.
// It panics if the lengths differ.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("blas: vector length mismatch in Axpy")
	}
	if alpha == 0 { //srdalint:ignore floatcmp exact zero alpha is the documented no-op fast path
		return
	}
	i := 0
	for ; i+3 < len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Scal scales x in place by alpha.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Nrm2 returns the Euclidean norm of x, computed with scaling so that it
// neither overflows nor underflows for extreme magnitudes.
func Nrm2(x []float64) float64 {
	var acc NormAcc
	for _, v := range x {
		acc.Add(v)
	}
	return acc.Norm()
}

// NormAcc is Nrm2 one element at a time: adding x's elements in order and
// then calling Norm gives exactly Nrm2(x).  A row-major block keeps one
// accumulator per column to take all its column norms in a single pass.
// The zero value is an empty accumulator.
type NormAcc struct{ scale, ssq float64 }

// Add accumulates v.
func (n *NormAcc) Add(v float64) {
	if v == 0 { //srdalint:ignore floatcmp exact zero skip keeps the scaled-ssq update well-defined
		return
	}
	a := math.Abs(v)
	if n.scale < a {
		r := n.scale / a
		n.ssq = 1 + n.ssq*r*r
		n.scale = a
	} else {
		r := a / n.scale
		n.ssq += r * r
	}
}

// Norm returns the Euclidean norm of the elements added so far.
func (n NormAcc) Norm() float64 {
	if n.scale == 0 { //srdalint:ignore floatcmp an all-zero vector has exact norm 0
		return 0
	}
	return n.scale * math.Sqrt(n.ssq)
}

// Gemv computes y = alpha*A*x + beta*y where A is m×n row-major with
// leading dimension lda (lda >= n).
func Gemv(m, n int, alpha float64, a []float64, lda int, x []float64, beta float64, y []float64) {
	if len(x) < n || len(y) < m {
		panic("blas: vector too short in Gemv")
	}
	if lda < n {
		panic("blas: lda < n in Gemv")
	}
	for i := 0; i < m; i++ {
		row := a[i*lda : i*lda+n]
		s := Dot(row, x[:n])
		if beta == 0 { //srdalint:ignore floatcmp BLAS beta==0 means overwrite, not scale; bit-exact by contract
			y[i] = alpha * s
		} else {
			y[i] = alpha*s + beta*y[i]
		}
	}
}

// GemvT computes y = alpha*Aᵀ*x + beta*y where A is m×n row-major with
// leading dimension lda, so y has length n and x has length m.  The loop
// runs over rows of A (unit-stride access) accumulating into y.
func GemvT(m, n int, alpha float64, a []float64, lda int, x []float64, beta float64, y []float64) {
	if len(x) < m || len(y) < n {
		panic("blas: vector too short in GemvT")
	}
	if lda < n {
		panic("blas: lda < n in GemvT")
	}
	if beta == 0 { //srdalint:ignore floatcmp BLAS beta==0 means overwrite, not scale; bit-exact by contract
		for j := 0; j < n; j++ {
			y[j] = 0
		}
	} else if beta != 1 { //srdalint:ignore floatcmp exact beta==1 skips the scaling pass bit-exactly
		Scal(beta, y[:n])
	}
	for i := 0; i < m; i++ {
		Axpy(alpha*x[i], a[i*lda:i*lda+n], y[:n])
	}
}

// Ger performs the rank-one update A += alpha * x * yᵀ on the m×n row-major
// matrix A with leading dimension lda.
func Ger(m, n int, alpha float64, x, y []float64, a []float64, lda int) {
	if len(x) < m || len(y) < n {
		panic("blas: vector too short in Ger")
	}
	for i := 0; i < m; i++ {
		Axpy(alpha*x[i], y[:n], a[i*lda:i*lda+n])
	}
}

// gemmBlock is the cache-blocking tile edge for Gemm.  96×96 float64 tiles
// of A, B and C together occupy ~216 KiB, sized to sit in L2.
const gemmBlock = 96

// Gemm computes C = alpha*A*B + beta*C for row-major matrices:
// A is m×k (leading dim lda), B is k×n (ldb), C is m×n (ldc).
// The kernel is blocked i-k-j with an axpy inner loop, which keeps both B
// and C rows unit-stride.
func Gemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if lda < k || ldb < n || ldc < n {
		panic("blas: bad leading dimension in Gemm")
	}
	if beta == 0 { //srdalint:ignore floatcmp BLAS beta==0 means overwrite, not scale; bit-exact by contract
		for i := 0; i < m; i++ {
			row := c[i*ldc : i*ldc+n]
			for j := range row {
				row[j] = 0
			}
		}
	} else if beta != 1 { //srdalint:ignore floatcmp exact beta==1 skips the scaling pass bit-exactly
		for i := 0; i < m; i++ {
			Scal(beta, c[i*ldc:i*ldc+n])
		}
	}
	if alpha == 0 || m == 0 || n == 0 || k == 0 { //srdalint:ignore floatcmp exact zero alpha is the documented no-op fast path
		return
	}
	for ii := 0; ii < m; ii += gemmBlock {
		iMax := min(ii+gemmBlock, m)
		for kk := 0; kk < k; kk += gemmBlock {
			kMax := min(kk+gemmBlock, k)
			for jj := 0; jj < n; jj += gemmBlock {
				jMax := min(jj+gemmBlock, n)
				for i := ii; i < iMax; i++ {
					crow := c[i*ldc+jj : i*ldc+jMax]
					arow := a[i*lda:]
					for p := kk; p < kMax; p++ {
						av := alpha * arow[p]
						if av == 0 { //srdalint:ignore floatcmp exact-zero axpy skip; sequential and Par twins share this guard
							continue
						}
						Axpy(av, b[p*ldb+jj:p*ldb+jMax], crow)
					}
				}
			}
		}
	}
}

// GemmTA computes C = alpha*Aᵀ*B + beta*C where A is k×m (lda), B is k×n
// (ldb) and C is m×n (ldc).  This is the kernel behind Gram matrices
// (XᵀX) and cross-products (Xᵀy) without materializing the transpose.
func GemmTA(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if lda < m || ldb < n || ldc < n {
		panic("blas: bad leading dimension in GemmTA")
	}
	if beta == 0 { //srdalint:ignore floatcmp BLAS beta==0 means overwrite, not scale; bit-exact by contract
		for i := 0; i < m; i++ {
			row := c[i*ldc : i*ldc+n]
			for j := range row {
				row[j] = 0
			}
		}
	} else if beta != 1 { //srdalint:ignore floatcmp exact beta==1 skips the scaling pass bit-exactly
		for i := 0; i < m; i++ {
			Scal(beta, c[i*ldc:i*ldc+n])
		}
	}
	if alpha == 0 { //srdalint:ignore floatcmp exact zero alpha is the documented no-op fast path
		return
	}
	// C[i][j] += alpha * sum_p A[p][i]*B[p][j]: iterate p outermost so both
	// A and B rows are walked unit-stride; each p contributes a rank-one
	// update restricted to the current tile.
	for pp := 0; pp < k; pp += gemmBlock {
		pMax := min(pp+gemmBlock, k)
		for ii := 0; ii < m; ii += gemmBlock {
			iMax := min(ii+gemmBlock, m)
			for jj := 0; jj < n; jj += gemmBlock {
				jMax := min(jj+gemmBlock, n)
				for p := pp; p < pMax; p++ {
					arow := a[p*lda:]
					brow := b[p*ldb+jj : p*ldb+jMax]
					for i := ii; i < iMax; i++ {
						av := alpha * arow[i]
						if av == 0 { //srdalint:ignore floatcmp exact-zero axpy skip; sequential and Par twins share this guard
							continue
						}
						Axpy(av, brow, c[i*ldc+jj:i*ldc+jMax])
					}
				}
			}
		}
	}
}

// GemmTB computes C = alpha*A*Bᵀ + beta*C where A is m×k (lda), B is n×k
// (ldb) and C is m×n (ldc).  Each C entry is a dot product of two rows, so
// every access is unit-stride.
func GemmTB(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if lda < k || ldb < k || ldc < n {
		panic("blas: bad leading dimension in GemmTB")
	}
	for i := 0; i < m; i++ {
		arow := a[i*lda : i*lda+k]
		crow := c[i*ldc : i*ldc+n]
		j := 0
		// Four outputs per pass over arow: one load of a[i][t] feeds four
		// accumulator chains, quartering the A traffic versus j separate
		// dots and keeping four independent FMA chains in flight.
		for ; j+3 < n; j += 4 {
			s0, s1, s2, s3 := dot4(arow,
				b[j*ldb:j*ldb+k], b[(j+1)*ldb:(j+1)*ldb+k],
				b[(j+2)*ldb:(j+2)*ldb+k], b[(j+3)*ldb:(j+3)*ldb+k])
			if beta == 0 { //srdalint:ignore floatcmp BLAS beta==0 means overwrite, not scale; bit-exact by contract
				crow[j] = alpha * s0
				crow[j+1] = alpha * s1
				crow[j+2] = alpha * s2
				crow[j+3] = alpha * s3
			} else {
				crow[j] = alpha*s0 + beta*crow[j]
				crow[j+1] = alpha*s1 + beta*crow[j+1]
				crow[j+2] = alpha*s2 + beta*crow[j+2]
				crow[j+3] = alpha*s3 + beta*crow[j+3]
			}
		}
		for ; j < n; j++ {
			s := Dot(arow, b[j*ldb:j*ldb+k])
			if beta == 0 { //srdalint:ignore floatcmp BLAS beta==0 means overwrite, not scale; bit-exact by contract
				crow[j] = alpha * s
			} else {
				crow[j] = alpha*s + beta*crow[j]
			}
		}
	}
}

// dot4 computes the dot of x against four equal-length vectors in a
// single pass over x.
func dot4(x, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64) {
	if len(y0) != len(x) || len(y1) != len(x) || len(y2) != len(x) || len(y3) != len(x) {
		panic("blas: vector length mismatch in dot4")
	}
	for i, xv := range x {
		s0 += xv * y0[i]
		s1 += xv * y1[i]
		s2 += xv * y2[i]
		s3 += xv * y3[i]
	}
	return
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
