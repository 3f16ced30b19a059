package sparse

// Parallel twins of the CSR kernels.  As in internal/blas, each Par*
// method shards only over independent output rows or columns and runs the
// same per-element arithmetic in the same order as its sequential twin, so
// results are bitwise identical for every worker count.  The sequential
// methods are themselves expressed as full-range calls of the shared range
// helpers, making twin-ness a structural property rather than a promise.
//
// Sharding a CSR by *output column* (MulTVec, Gram) uses a binary search
// per row to find the window of stored entries that land in the shard's
// column span; column indices are strictly increasing within a row, so the
// window is contiguous and the per-column accumulation still walks rows in
// ascending order exactly like the sequential scatter.

import (
	"sort"

	"srda/internal/mat"
	"srda/internal/pool"
)

// parMinNNZ is the stored-entry count below which the Par* methods run
// sequentially; a sparse kernel does ~2 flops per nonzero, so this matches
// the ~32Ki-flop handoff threshold used by internal/blas.
const parMinNNZ = 1 << 14

// ParMulVec computes y = A*x like MulVec, sharding output rows across the
// worker pool; each dst[i] is a single row dot product, so the result is
// bitwise identical to MulVec for any workers (<= 0 means GOMAXPROCS).
func (a *CSR) ParMulVec(workers int, x, dst []float64) []float64 {
	if len(x) != a.Cols {
		panic("sparse: ParMulVec length mismatch")
	}
	if dst == nil {
		dst = make([]float64, a.Rows)
	}
	if workers == 1 || a.Rows < 2 || a.NNZ() < parMinNNZ {
		a.mulVecRange(0, a.Rows, x, dst)
		return dst
	}
	pool.Do(workers, a.Rows, func(lo, hi int) {
		a.mulVecRange(lo, hi, x, dst)
	})
	return dst
}

// colWindow returns the index range [s, e) within row r's stored entries
// whose column indices fall in [jlo, jhi).
func (a *CSR) colWindow(r, jlo, jhi int) (s, e int) {
	lo, hi := a.RowPtr[r], a.RowPtr[r+1]
	cols := a.ColIdx[lo:hi]
	s, e = 0, len(cols)
	if jlo > 0 {
		s = sort.SearchInts(cols, jlo)
	}
	if jhi <= a.Cols-1 {
		e = sort.SearchInts(cols, jhi)
	}
	return lo + s, lo + e
}

// mulTVecRange accumulates dst[j] = column(j)·x for j in [jlo, jhi),
// zeroing that span of dst first.  For every output column the row scan is
// ascending with the same xi == 0 skip as MulTVec (the skip is part of the
// contract: 0*Inf would otherwise mint NaNs the sequential kernel never
// produces), so MulTVec and ParMulTVec are bitwise twins.
func (a *CSR) mulTVecRange(jlo, jhi int, x, dst []float64) {
	for j := jlo; j < jhi; j++ {
		dst[j] = 0
	}
	for i := 0; i < a.Rows; i++ {
		xi := x[i]
		if xi == 0 { //srdalint:ignore floatcmp exact sparsity skip shared with the sequential twin
			continue
		}
		s, e := a.colWindow(i, jlo, jhi)
		for k := s; k < e; k++ {
			dst[a.ColIdx[k]] += a.Val[k] * xi
		}
	}
}

// ParMulTVec computes y = Aᵀ*x like MulTVec, sharding output columns
// across the worker pool.  Bitwise identical to MulTVec for any workers.
func (a *CSR) ParMulTVec(workers int, x, dst []float64) []float64 {
	if len(x) != a.Rows {
		panic("sparse: ParMulTVec length mismatch")
	}
	if dst == nil {
		dst = make([]float64, a.Cols)
	}
	if workers == 1 || a.Cols < 2 || a.NNZ() < parMinNNZ {
		return a.MulTVec(x, dst)
	}
	pool.Do(workers, a.Cols, func(lo, hi int) {
		a.mulTVecRange(lo, hi, x, dst)
	})
	return dst
}

// mulTBlockRange accumulates the output rows [jlo, jhi) of the block
// product Aᵀ·X, the k-wide form of mulTVecRange: one colWindow search per
// matrix row serves all k columns, and every output entry adds val·x over
// the rows in ascending order.
func (a *CSR) mulTBlockRange(jlo, jhi, k int, x, dst []float64) {
	out := dst[jlo*k : jhi*k]
	for j := range out {
		out[j] = 0
	}
	for i := 0; i < a.Rows; i++ {
		xr := x[i*k : i*k+k]
		s, e := a.colWindow(i, jlo, jhi)
		for p := s; p < e; p++ {
			v := a.Val[p]
			d := dst[a.ColIdx[p]*k:][:len(xr)]
			for j, xv := range xr {
				d[j] += v * xv
			}
		}
	}
}

// ParMulBlock computes Y = A·X like MulBlock, sharding output rows across
// the worker pool.  Bitwise identical to MulBlock for any workers.
func (a *CSR) ParMulBlock(workers, k int, x, dst []float64) []float64 {
	if k < 0 || len(x) != a.Cols*k {
		panic("sparse: ParMulBlock length mismatch")
	}
	if dst == nil {
		dst = make([]float64, a.Rows*k)
	}
	if workers == 1 || a.Rows < 2 || a.NNZ()*k < parMinNNZ {
		a.mulBlockRange(0, a.Rows, k, x, dst)
		return dst
	}
	pool.Do(workers, a.Rows, func(lo, hi int) {
		a.mulBlockRange(lo, hi, k, x, dst)
	})
	return dst
}

// ParMulTBlock computes Y = Aᵀ·X like MulTBlock, sharding output rows of Y
// (columns of A) across the worker pool.  Bitwise identical to MulTBlock
// for any workers.
func (a *CSR) ParMulTBlock(workers, k int, x, dst []float64) []float64 {
	if k < 0 || len(x) != a.Rows*k {
		panic("sparse: ParMulTBlock length mismatch")
	}
	if dst == nil {
		dst = make([]float64, a.Cols*k)
	}
	if workers == 1 || a.Cols < 2 || a.NNZ()*k < parMinNNZ {
		a.mulTBlockRange(0, a.Cols, k, x, dst)
		return dst
	}
	pool.Do(workers, a.Cols, func(lo, hi int) {
		a.mulTBlockRange(lo, hi, k, x, dst)
	})
	return dst
}

// gramUpperRange accumulates the rows [ilo, ihi) of the upper triangle of
// G = AᵀA: for every matrix row p (ascending) and every stored pair
// (i, j) with i in the span and j >= i, G[i,j] += A[p,i]*A[p,j].  Column
// indices ascend within a row, so the pair order for a fixed (i, j) is
// identical no matter how the i range is sharded.
func (a *CSR) gramUpperRange(ilo, ihi int, g *mat.Dense) {
	for p := 0; p < a.Rows; p++ {
		hi := a.RowPtr[p+1]
		s, e := a.colWindow(p, ilo, ihi)
		for t := s; t < e; t++ {
			i, v := a.ColIdx[t], a.Val[t]
			gi := g.Data[i*g.Stride : i*g.Stride+g.Cols]
			for u := t; u < hi; u++ {
				gi[a.ColIdx[u]] += v * a.Val[u]
			}
		}
	}
}

// gramMirrorRange copies the upper triangle into the lower for rows
// [jlo, jhi) of G.  Pure copies of already-final values: no arithmetic, so
// nothing to reorder.
func (a *CSR) gramMirrorRange(jlo, jhi int, g *mat.Dense) {
	for j := jlo; j < jhi; j++ {
		row := g.Data[j*g.Stride:]
		for i := 0; i < j; i++ {
			row[i] = g.Data[i*g.Stride+j]
		}
	}
}

// Gram computes G = AᵀA into dst (allocated when nil; must be Cols×Cols
// otherwise), overwriting it.  This is the normal-equations accumulation
// the primal solver needs, done in one pass over the stored entries:
// O(Σ s_p²) where s_p is the nonzeros of row p, never materializing a
// dense copy of A.
func (a *CSR) Gram(dst *mat.Dense) *mat.Dense {
	dst = a.gramDst(dst)
	a.gramUpperRange(0, a.Cols, dst)
	a.gramMirrorRange(0, a.Cols, dst)
	return dst
}

// ParGram computes G = AᵀA like Gram, sharding the upper-triangle
// accumulation and then the mirror over output rows of G in spans of
// equal triangle area (upper row i holds n−i entries, mirror row j holds
// j); the two passes
// are separated by the pool barrier, so the mirror only reads final upper
// values.  Bitwise identical to Gram for any workers.
func (a *CSR) ParGram(workers int, dst *mat.Dense) *mat.Dense {
	dst = a.gramDst(dst)
	if workers == 1 || a.Cols < 2 || a.NNZ() < parMinNNZ {
		a.gramUpperRange(0, a.Cols, dst)
		a.gramMirrorRange(0, a.Cols, dst)
		return dst
	}
	n := a.Cols
	pool.DoUpper(workers, n, func(lo, hi int) {
		a.gramUpperRange(lo, hi, dst)
	})
	pool.DoUpper(workers, n, func(lo, hi int) {
		a.gramMirrorRange(n-hi, n-lo, dst)
	})
	return dst
}

func (a *CSR) gramDst(dst *mat.Dense) *mat.Dense {
	if dst == nil {
		return mat.NewDense(a.Cols, a.Cols)
	}
	if dst.Rows != a.Cols || dst.Cols != a.Cols {
		panic("sparse: Gram destination has wrong shape")
	}
	for i := 0; i < dst.Rows; i++ {
		row := dst.RowView(i)
		for j := range row {
			row[j] = 0
		}
	}
	return dst
}
