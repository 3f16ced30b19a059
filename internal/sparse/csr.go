// Package sparse implements compressed sparse row (CSR) matrices and the
// operations SRDA's iterative path needs: matrix-vector products with A and
// Aᵀ, row access, column statistics, and conversions to and from dense
// form.  A COO (triplet) builder handles incremental construction.
//
// CSR is the layout the paper's complexity analysis assumes: one LSQR
// iteration costs two sparse mat-vecs, O(m·s) with s the average number of
// nonzeros per row, which is what makes SRDA linear-time on text data.
package sparse

import (
	"fmt"
	"sort"

	"srda/internal/mat"
)

// CSR is an immutable m×n sparse matrix in compressed sparse row form.
// Row i occupies ColIdx[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]],
// with column indices strictly increasing within a row.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Val) }

// AvgRowNNZ returns the average number of stored entries per row — the
// paper's "s" parameter.
func (a *CSR) AvgRowNNZ() float64 {
	if a.Rows == 0 {
		return 0
	}
	return float64(a.NNZ()) / float64(a.Rows)
}

// Density returns nnz / (rows*cols).
func (a *CSR) Density() float64 {
	if a.Rows == 0 || a.Cols == 0 {
		return 0
	}
	return float64(a.NNZ()) / (float64(a.Rows) * float64(a.Cols))
}

// Row returns the column indices and values of row i, sharing storage.
func (a *CSR) Row(i int) (cols []int, vals []float64) {
	if i < 0 || i >= a.Rows {
		panic("sparse: row index out of range")
	}
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// At returns element (i, j) with a binary search over row i.
func (a *CSR) At(i, j int) float64 {
	if j < 0 || j >= a.Cols {
		panic("sparse: column index out of range")
	}
	cols, vals := a.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// MulVec computes y = A*x, allocating y when dst is nil.
func (a *CSR) MulVec(x, dst []float64) []float64 {
	if len(x) != a.Cols {
		panic("sparse: MulVec length mismatch")
	}
	if dst == nil {
		dst = make([]float64, a.Rows)
	}
	a.mulVecRange(0, a.Rows, x, dst)
	return dst
}

// mulVecRange computes dst[i] = row(i)·x for i in [rlo, rhi).  MulVec is
// mulVecRange over the full row range; ParMulVec shards the same helper
// over disjoint row spans, which is what makes the two bitwise twins.
func (a *CSR) mulVecRange(rlo, rhi int, x, dst []float64) {
	for i := rlo; i < rhi; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		var s float64
		for k := lo; k < hi; k++ {
			s += a.Val[k] * x[a.ColIdx[k]]
		}
		dst[i] = s
	}
}

// MulTVec computes y = Aᵀ*x, allocating y when dst is nil.
func (a *CSR) MulTVec(x, dst []float64) []float64 {
	if len(x) != a.Rows {
		panic("sparse: MulTVec length mismatch")
	}
	if dst == nil {
		dst = make([]float64, a.Cols)
	} else {
		for j := range dst {
			dst[j] = 0
		}
	}
	for i := 0; i < a.Rows; i++ {
		xi := x[i]
		if xi == 0 { //srdalint:ignore floatcmp exact sparsity skip shared with the Par twin
			continue
		}
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			dst[a.ColIdx[k]] += a.Val[k] * xi
		}
	}
	return dst
}

// MulBlock computes the m×k block Y = A·X for a row-major n×k block x,
// allocating dst when nil.  Column j of Y is bitwise MulVec of column j of
// x: each output entry sums its row's stored entries in storage order.
func (a *CSR) MulBlock(k int, x, dst []float64) []float64 {
	if k < 0 || len(x) != a.Cols*k {
		panic("sparse: MulBlock length mismatch")
	}
	if dst == nil {
		dst = make([]float64, a.Rows*k)
	}
	a.mulBlockRange(0, a.Rows, k, x, dst)
	return dst
}

// mulBlockRange computes rows [rlo, rhi) of the block product A·X, the
// k-wide form of mulVecRange: every dst entry starts at zero and adds
// val·x over its row's stored entries in storage order.
func (a *CSR) mulBlockRange(rlo, rhi, k int, x, dst []float64) {
	for i := rlo; i < rhi; i++ {
		d := dst[i*k : i*k+k]
		for j := range d {
			d[j] = 0
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			v := a.Val[p]
			xr := x[a.ColIdx[p]*k:][:len(d)]
			for j, xv := range xr {
				d[j] += v * xv
			}
		}
	}
}

// MulTBlock computes the n×k block Y = Aᵀ·X for a row-major m×k block x,
// allocating dst when nil.  Each output entry accumulates over the rows
// in ascending order, as MulTVec does; MulTVec skips a row whose x entry
// is exactly zero, which adds only signed zeros here, so for finite A
// column j of Y is bitwise MulTVec of column j of x.
func (a *CSR) MulTBlock(k int, x, dst []float64) []float64 {
	if k < 0 || len(x) != a.Rows*k {
		panic("sparse: MulTBlock length mismatch")
	}
	if dst == nil {
		dst = make([]float64, a.Cols*k)
	}
	a.mulTBlockRange(0, a.Cols, k, x, dst)
	return dst
}

// RowNorm2 returns the squared Euclidean norm of row i.
func (a *CSR) RowNorm2(i int) float64 {
	_, vals := a.Row(i)
	var s float64
	for _, v := range vals {
		s += v * v
	}
	return s
}

// SelectRows returns a new CSR containing the given rows of a, in order.
// Duplicate indices are allowed (bootstrap-style sampling).
func (a *CSR) SelectRows(idx []int) *CSR {
	out := &CSR{Rows: len(idx), Cols: a.Cols, RowPtr: make([]int, len(idx)+1)}
	nnz := 0
	for _, i := range idx {
		if i < 0 || i >= a.Rows {
			panic("sparse: SelectRows index out of range")
		}
		nnz += a.RowPtr[i+1] - a.RowPtr[i]
	}
	out.ColIdx = make([]int, 0, nnz)
	out.Val = make([]float64, 0, nnz)
	for r, i := range idx {
		cols, vals := a.Row(i)
		out.ColIdx = append(out.ColIdx, cols...) //srdalint:ignore hotalloc appends into exactly pre-counted capacity; never reallocates
		out.Val = append(out.Val, vals...)       //srdalint:ignore hotalloc appends into exactly pre-counted capacity; never reallocates
		out.RowPtr[r+1] = len(out.Val)
	}
	return out
}

// ToDense expands a into a dense matrix.
func (a *CSR) ToDense() *mat.Dense {
	d := mat.NewDense(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := d.RowView(i)
		cols, vals := a.Row(i)
		for k, j := range cols {
			row[j] = vals[k]
		}
	}
	return d
}

// FromDense compresses a dense matrix, dropping entries with |v| <= dropTol.
// A counting pass sizes the index and value arrays exactly, so the copy
// pass never reallocates no matter how dense the input turns out to be.
func FromDense(d *mat.Dense, dropTol float64) *CSR {
	a := &CSR{Rows: d.Rows, Cols: d.Cols, RowPtr: make([]int, d.Rows+1)}
	nnz := 0
	for i := 0; i < d.Rows; i++ {
		for _, v := range d.RowView(i) {
			if v > dropTol || v < -dropTol {
				nnz++
			}
		}
	}
	a.ColIdx = make([]int, 0, nnz)
	a.Val = make([]float64, 0, nnz)
	for i := 0; i < d.Rows; i++ {
		row := d.RowView(i)
		for j, v := range row {
			if v > dropTol || v < -dropTol {
				a.ColIdx = append(a.ColIdx, j) //srdalint:ignore hotalloc appends into exactly pre-counted capacity; never reallocates
				a.Val = append(a.Val, v)       //srdalint:ignore hotalloc appends into exactly pre-counted capacity; never reallocates
			}
		}
		a.RowPtr[i+1] = len(a.Val)
	}
	return a
}

// String summarizes the matrix shape and sparsity.
func (a *CSR) String() string {
	return fmt.Sprintf("CSR %dx%d nnz=%d (%.4f%%)", a.Rows, a.Cols, a.NNZ(), 100*a.Density())
}

// Builder accumulates COO triplets and compiles them into a CSR matrix.
// Duplicate (i,j) entries are summed at Build time.
type Builder struct {
	rows, cols int
	entries    []entry
}

type entry struct {
	i, j int
	v    float64
}

// NewBuilder creates a builder for an r×c matrix.
func NewBuilder(r, c int) *Builder {
	if r < 0 || c < 0 {
		panic("sparse: negative dimension")
	}
	return &Builder{rows: r, cols: c}
}

// Add accumulates v at (i, j).  Zero values are ignored.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Add(%d,%d) out of range %dx%d", i, j, b.rows, b.cols))
	}
	if v == 0 { //srdalint:ignore floatcmp exact zeros are dropped from the sparse structure
		return
	}
	b.entries = append(b.entries, entry{i, j, v})
}

// Build compiles the accumulated triplets into a CSR matrix, summing
// duplicates and dropping entries that cancel to exactly zero.
func (b *Builder) Build() *CSR {
	sort.Slice(b.entries, func(p, q int) bool {
		if b.entries[p].i != b.entries[q].i {
			return b.entries[p].i < b.entries[q].i
		}
		return b.entries[p].j < b.entries[q].j
	})
	a := &CSR{Rows: b.rows, Cols: b.cols, RowPtr: make([]int, b.rows+1)}
	for k := 0; k < len(b.entries); {
		e := b.entries[k]
		v := e.v
		k++
		for k < len(b.entries) && b.entries[k].i == e.i && b.entries[k].j == e.j {
			v += b.entries[k].v
			k++
		}
		if v == 0 { //srdalint:ignore floatcmp exact cancellation drops the entry from the sparse structure
			continue
		}
		a.ColIdx = append(a.ColIdx, e.j)
		a.Val = append(a.Val, v)
		a.RowPtr[e.i+1] = len(a.Val)
	}
	// RowPtr so far holds per-row end marks only for rows with entries;
	// forward-fill empties.
	for i := 1; i <= b.rows; i++ {
		if a.RowPtr[i] < a.RowPtr[i-1] {
			a.RowPtr[i] = a.RowPtr[i-1]
		}
	}
	return a
}
