package mat

// Parallel twins of the dense products, built on internal/pool with the
// same contract as internal/blas: shard only over independent output rows,
// keep per-element arithmetic order unchanged, and the results are bitwise
// identical to the sequential functions for every worker count.  The
// sequential Gram/GramT are full-range calls of the range helpers below,
// so twin-ness is structural.

import (
	"fmt"

	"srda/internal/blas"
	"srda/internal/pool"
)

// parMinFlops mirrors the internal/blas threshold: products below ~32Ki
// multiply-adds are not worth a pool handoff.
const parMinFlops = 1 << 15

// ParMulTA computes C = Aᵀ*B like MulTA, sharded across the worker pool.
func ParMulTA(workers int, a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: ParMulTA dimension mismatch %dx%d ᵀ* %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewDense(a.Cols, b.Cols)
	blas.ParGemmTA(workers, a.Cols, b.Cols, a.Rows, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	return c
}

// ParMulVec computes y = A*x like MulVec, sharded across the worker pool.
func (m *Dense) ParMulVec(workers int, x, dst []float64) []float64 {
	if len(x) != m.Cols {
		panic("mat: ParMulVec length mismatch")
	}
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	blas.ParGemv(workers, m.Rows, m.Cols, 1, m.Data, m.Stride, x, 0, dst)
	return dst
}

// ParMulTVec computes y = Aᵀ*x like MulTVec, sharded across the worker pool.
func (m *Dense) ParMulTVec(workers int, x, dst []float64) []float64 {
	if len(x) != m.Rows {
		panic("mat: ParMulTVec length mismatch")
	}
	if dst == nil {
		dst = make([]float64, m.Cols)
	}
	blas.ParGemvT(workers, m.Rows, m.Cols, 1, m.Data, m.Stride, x, 0, dst)
	return dst
}

// gramUpperRange accumulates rows [ilo, ihi) of the upper triangle of
// G = AᵀA by rank-one contributions: output row i receives one Axpy per
// matrix row p, in ascending p, regardless of how the i range is sharded
// — which is exactly what keeps Gram and ParGram bitwise twins.
func gramUpperRange(a, g *Dense, ilo, ihi int) {
	n := a.Cols
	for p := 0; p < a.Rows; p++ {
		row := a.RowView(p)
		for i := ilo; i < ihi; i++ {
			v := row[i]
			if v == 0 { //srdalint:ignore floatcmp exact sparsity skip shared with the sequential Gram twin
				continue
			}
			blas.Axpy(v, row[i:], g.Data[i*g.Stride+i:i*g.Stride+n])
		}
	}
}

// gramMirrorRange copies the finished upper triangle into rows [jlo, jhi)
// of the lower triangle.
func gramMirrorRange(g *Dense, jlo, jhi int) {
	for j := jlo; j < jhi; j++ {
		row := g.Data[j*g.Stride:]
		for i := 0; i < j; i++ {
			row[i] = g.Data[i*g.Stride+j]
		}
	}
}

// ParGram computes AᵀA like Gram, sharding the upper-triangle
// accumulation and then the mirror over output rows in spans of equal
// area (upper row i holds n−i entries, mirror row j holds j); the pool
// barrier between the passes guarantees the mirror reads only final
// values.  Bitwise identical to Gram for any workers.
func ParGram(workers int, a *Dense) *Dense {
	n := a.Cols
	g := NewDense(n, n)
	if workers == 1 || n < 2 || a.Rows*n*n < parMinFlops {
		gramUpperRange(a, g, 0, n)
		gramMirrorRange(g, 0, n)
		return g
	}
	pool.DoUpper(workers, n, func(lo, hi int) {
		gramUpperRange(a, g, lo, hi)
	})
	pool.DoUpper(workers, n, func(lo, hi int) {
		gramMirrorRange(g, n-hi, n-lo)
	})
	return g
}

// gramTRange computes rows [ilo, ihi) of G = AAᵀ by row-pair dot
// products, mirroring each result to (j, i).  Element (j, i) with i < j
// is written only by the span that owns i, so concurrent spans never
// write the same element.
func gramTRange(a, g *Dense, ilo, ihi int) {
	for i := ilo; i < ihi; i++ {
		ri := a.RowView(i)
		for j := i; j < a.Rows; j++ {
			v := blas.Dot(ri, a.RowView(j))
			g.Data[i*g.Stride+j] = v
			g.Data[j*g.Stride+i] = v
		}
	}
}

// ParGramT computes AAᵀ like GramT with output rows sharded across the
// worker pool in spans of equal area (row i computes m−i dots).  Each
// element is a single dot product, so the result is
// bitwise identical to GramT for any workers.
func ParGramT(workers int, a *Dense) *Dense {
	m := a.Rows
	g := NewDense(m, m)
	if workers == 1 || m < 2 || m*m*a.Cols < parMinFlops {
		gramTRange(a, g, 0, m)
		return g
	}
	pool.DoUpper(workers, m, func(lo, hi int) {
		gramTRange(a, g, lo, hi)
	})
	return g
}
