// Package solver implements the iterative least-squares machinery behind
// SRDA's linear-time path: LSQR (Paige & Saunders 1982) with Tikhonov
// damping, run in lockstep over many right-hand sides, plus conjugate
// gradients on the normal equations for comparison.  Solvers operate on an
// abstract Operator so dense matrices, CSR sparse matrices, and the
// paper's "append a 1 to every sample" intercept augmentation all share
// one code path.
package solver

import (
	"sync"

	"srda/internal/mat"
	"srda/internal/sparse"
)

// Operator is a linear map A: R^n -> R^m exposed through its action and
// the action of its adjoint.  Implementations must treat x as read-only
// and may use dst (when non-nil and correctly sized) as the output buffer.
type Operator interface {
	// Dims returns (m, n): the output and input dimensions.
	Dims() (m, n int)
	// Apply computes A*x into a vector of length m.
	Apply(x, dst []float64) []float64
	// ApplyT computes Aᵀ*x into a vector of length n.
	ApplyT(x, dst []float64) []float64
}

// BlockOperator is an Operator that also applies itself to k vectors at
// once.  A block of k vectors of length r is stored row-major as r×k:
// entry (i, j) is element i of vector j, at index i*k+j.  ApplyBlock maps
// the n×k block x to the m×k block dst; ApplyTBlock maps m×k to n×k.
// Column j of each result must be bitwise what Apply or ApplyT gives for
// column j of x, which is what lets the lockstep solver reproduce k
// single-vector solves exactly.
type BlockOperator interface {
	Operator
	ApplyBlock(k int, x, dst []float64)
	ApplyTBlock(k int, x, dst []float64)
}

// Blocked returns op as a BlockOperator.  Operators with block forms are
// returned as they are (an AugmentedOp gets a blocked inner operator).
// Any other operator is adapted column by column: each column goes in
// turn through the operator's own Apply or ApplyT.  The adapter keeps
// scratch between calls, so one adapter serves one solve at a time.
func Blocked(op Operator) BlockOperator {
	switch o := op.(type) {
	case AugmentedOp:
		return AugmentedOp{Inner: Blocked(o.Inner)}
	case BlockOperator:
		return o
	}
	return &columns{Operator: op}
}

// sequential returns op with the kernel parallelism of the dense and
// sparse products it is built from switched off; the products' results do
// not depend on it.
func sequential(op Operator) Operator {
	switch o := op.(type) {
	case AugmentedOp:
		return AugmentedOp{Inner: sequential(o.Inner)}
	case SparseOp:
		o.Workers = 1
		return o
	case DenseOp:
		o.Workers = 1
		return o
	}
	return op
}

// columns is the per-column BlockOperator adapter of Blocked.
type columns struct {
	Operator
	in, out []float64 // one column of the input and of the result
}

// ApplyBlock implements BlockOperator.
func (c *columns) ApplyBlock(k int, x, dst []float64) { c.each(k, x, dst, false) }

// ApplyTBlock implements BlockOperator.
func (c *columns) ApplyTBlock(k int, x, dst []float64) { c.each(k, x, dst, true) }

func (c *columns) each(k int, x, dst []float64, trans bool) {
	rows, cols := c.Dims() // x is cols×k, dst is rows×k
	if trans {
		rows, cols = cols, rows
	}
	if cap(c.in) < cols {
		c.in = make([]float64, cols)
	}
	if cap(c.out) < rows {
		c.out = make([]float64, rows)
	}
	in := c.in[:cols]
	for j := 0; j < k; j++ {
		for i := range in {
			in[i] = x[i*k+j]
		}
		var out []float64
		if trans {
			out = c.ApplyT(in, c.out[:rows])
		} else {
			out = c.Apply(in, c.out[:rows])
		}
		for i, v := range out {
			dst[i*k+j] = v
		}
	}
}

// DenseOp adapts a *mat.Dense to the Operator interface.  Workers bounds
// the kernel parallelism of each product (<= 0 means GOMAXPROCS, 1 forces
// sequential); any setting produces bitwise-identical results, so solves
// are reproducible across machines regardless of core count.
type DenseOp struct {
	A       *mat.Dense
	Workers int
}

// Dims implements Operator.
func (o DenseOp) Dims() (int, int) { return o.A.Rows, o.A.Cols }

// Apply implements Operator.
func (o DenseOp) Apply(x, dst []float64) []float64 { return o.A.ParMulVec(o.Workers, x, dst) }

// ApplyT implements Operator.
func (o DenseOp) ApplyT(x, dst []float64) []float64 { return o.A.ParMulTVec(o.Workers, x, dst) }

// SparseOp adapts a *sparse.CSR to the Operator interface.  Workers has
// the same bitwise-safe semantics as on DenseOp.
type SparseOp struct {
	A       *sparse.CSR
	Workers int
}

// Dims implements Operator.
func (o SparseOp) Dims() (int, int) { return o.A.Rows, o.A.Cols }

// Apply implements Operator.
func (o SparseOp) Apply(x, dst []float64) []float64 { return o.A.ParMulVec(o.Workers, x, dst) }

// ApplyT implements Operator.
func (o SparseOp) ApplyT(x, dst []float64) []float64 { return o.A.ParMulTVec(o.Workers, x, dst) }

// ApplyBlock implements BlockOperator: one pass over A for all k columns.
func (o SparseOp) ApplyBlock(k int, x, dst []float64) { o.A.ParMulBlock(o.Workers, k, x, dst) }

// ApplyTBlock implements BlockOperator: one pass over A for all k columns.
func (o SparseOp) ApplyTBlock(k int, x, dst []float64) { o.A.ParMulTBlock(o.Workers, k, x, dst) }

// AugmentedOp wraps an operator A as [A | 1]: every row gains a trailing
// constant-1 feature.  This is the paper's intercept-absorption trick
// (§III-B): ridge-regressing with the augmented operator fits aᵀx + b
// without ever centering the (possibly sparse) data, so sparsity is
// preserved.  The intercept coordinate is the last entry of the solution
// vector.
type AugmentedOp struct{ Inner Operator }

// Dims implements Operator: one extra input dimension for the intercept.
func (o AugmentedOp) Dims() (int, int) {
	m, n := o.Inner.Dims()
	return m, n + 1
}

// Apply implements Operator.
func (o AugmentedOp) Apply(x, dst []float64) []float64 {
	m, n := o.Inner.Dims()
	dst = o.Inner.Apply(x[:n], dst)
	b := x[n]
	if b != 0 { //srdalint:ignore floatcmp exact zero bias term skips the broadcast add bit-exactly
		for i := 0; i < m; i++ {
			dst[i] += b
		}
	}
	return dst
}

// ApplyT implements Operator.
func (o AugmentedOp) ApplyT(x, dst []float64) []float64 {
	m, n := o.Inner.Dims()
	if dst == nil {
		dst = make([]float64, n+1)
	}
	o.Inner.ApplyT(x, dst[:n])
	var s float64
	for i := 0; i < m; i++ {
		s += x[i]
	}
	dst[n] = s
	return dst
}

// ApplyBlock implements BlockOperator: the inner block product plus, per
// column, the same skip-if-zero broadcast of the intercept row as Apply.
// An inner operator without block forms is adapted column by column.
func (o AugmentedOp) ApplyBlock(k int, x, dst []float64) {
	m, n := o.Inner.Dims()
	Blocked(o.Inner).ApplyBlock(k, x[:n*k], dst)
	b := x[n*k : n*k+k]
	for i := 0; i < m; i++ {
		row := dst[i*k : i*k+k]
		for j, bj := range b {
			if bj != 0 { //srdalint:ignore floatcmp exact zero bias term skips the broadcast add bit-exactly
				row[j] += bj
			}
		}
	}
}

// ApplyTBlock implements BlockOperator: the inner block product plus the
// intercept row, each column summed over rows in ascending order as in
// ApplyT.
func (o AugmentedOp) ApplyTBlock(k int, x, dst []float64) {
	m, n := o.Inner.Dims()
	Blocked(o.Inner).ApplyTBlock(k, x, dst[:n*k])
	s := dst[n*k : n*k+k]
	for j := range s {
		s[j] = 0
	}
	for i := 0; i < m; i++ {
		for j, v := range x[i*k : i*k+k] {
			s[j] += v
		}
	}
}

// DiskOp adapts an out-of-core *sparse.DiskCSR to the Operator interface.
// The Operator contract has no error channel, so I/O failures are made
// sticky: the first error freezes the operator (subsequent products
// return zero vectors) and is reported by Err.  Callers run the solve,
// then check Err once.  Safe for the concurrent use the column groups of
// ParLockstepLSQR make of it (the underlying reads go through ReadAt).
type DiskOp struct {
	A   *sparse.DiskCSR
	mu  sync.Mutex
	err error
}

// Dims implements Operator.
func (o *DiskOp) Dims() (int, int) { return o.A.Rows, o.A.Cols }

// Err returns the first I/O error encountered, if any.
func (o *DiskOp) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

func (o *DiskOp) fail(err error) {
	o.mu.Lock()
	if o.err == nil {
		o.err = err
	}
	o.mu.Unlock()
}

// Apply implements Operator.
func (o *DiskOp) Apply(x, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, o.A.Rows)
	}
	if o.Err() != nil {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	out, err := o.A.MulVec(x, dst)
	if err != nil {
		o.fail(err)
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	return out
}

// ApplyT implements Operator.
func (o *DiskOp) ApplyT(x, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, o.A.Cols)
	}
	if o.Err() != nil {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	out, err := o.A.MulTVec(x, dst)
	if err != nil {
		o.fail(err)
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	return out
}
