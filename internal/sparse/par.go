package sparse

// Parallel twins of the CSR kernels.  As in internal/blas, each Par*
// method shards only over independent output rows or columns and runs the
// same per-element arithmetic in the same order as its sequential twin, so
// results are bitwise identical for every worker count.  The sequential
// methods are themselves expressed as full-range calls of the shared range
// helpers, making twin-ness a structural property rather than a promise.
//
// Sharding a CSR by *output column* (MulTVec) uses a binary search
// per row to find the window of stored entries that land in the shard's
// column span; column indices are strictly increasing within a row, so the
// window is contiguous and the per-column accumulation still walks rows in
// ascending order exactly like the sequential scatter.

import (
	"sort"

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
