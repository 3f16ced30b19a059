package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// parShapes mixes shapes below the parMinNNZ cutoff (exercising the
// sequential fallback), above it (exercising real sharding), and
// degenerate empty/ragged cases.  fill 0 produces an all-empty matrix.
var parShapes = []struct {
	r, c int
	fill float64
}{
	{0, 0, 0}, {0, 5, 0.5}, {5, 0, 0}, {1, 1, 1},
	{3, 7, 0.4}, {64, 65, 0.1}, {65, 64, 0},
	{400, 300, 0.2},  // ~24k nnz: row sharding active
	{50, 2000, 0.25}, // wide: column sharding active for MulTVec
	{2000, 50, 0.25}, // tall
}

var sparseEqWorkers = []int{1, 2, 4, 7}

func bitsEqualVec(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

func TestParMulVecBitwiseEqualsMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, sh := range parShapes {
		_, a := randSparseDense(rng, sh.r, sh.c, sh.fill)
		x := make([]float64, sh.c)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		want := a.MulVec(x, nil)
		for _, w := range sparseEqWorkers {
			got := a.ParMulVec(w, x, make([]float64, sh.r))
			if i, ok := bitsEqualVec(got, want); !ok {
				t.Fatalf("%v workers=%d: row %d = %v, sequential %v", a, w, i, got[i], want[i])
			}
		}
	}
}

// TestBlockProductsBitwiseEqualSingleVector checks the block kernels a
// lockstep solver streams A through: for every shape, width and worker
// count, column j of (Par)MulBlock and (Par)MulTBlock is bitwise the
// single-vector MulVec/MulTVec of column j, and sharding never changes a
// bit.  Widths 1 and 19 are the single-solve and 20-class cases.
func TestBlockProductsBitwiseEqualSingleVector(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, sh := range parShapes {
		_, a := randSparseDense(rng, sh.r, sh.c, sh.fill)
		for _, k := range []int{1, 3, 19} {
			x, u := make([]float64, sh.c*k), make([]float64, sh.r*k)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			for i := range u {
				if i%3 > 0 { // exact zeros, as MulTVec's skip sees them
					u[i] = rng.NormFloat64()
				}
			}
			seq, seqT := a.MulBlock(k, x, nil), a.MulTBlock(k, u, nil)
			for j := 0; j < k; j++ {
				if i, ok := bitsEqualVec(column(seq, k, j), a.MulVec(column(x, k, j), nil)); !ok {
					t.Fatalf("%v k=%d: MulBlock entry (%d, %d) differs from MulVec", a, k, i, j)
				}
				if i, ok := bitsEqualVec(column(seqT, k, j), a.MulTVec(column(u, k, j), nil)); !ok {
					t.Fatalf("%v k=%d: MulTBlock entry (%d, %d) differs from MulTVec", a, k, i, j)
				}
			}
			for _, w := range sparseEqWorkers {
				// Pre-poison dst: the Par kernels must fully overwrite it.
				got, gotT := make([]float64, sh.r*k), make([]float64, sh.c*k)
				for i := range got {
					got[i] = math.NaN()
				}
				for i := range gotT {
					gotT[i] = math.NaN()
				}
				a.ParMulBlock(w, k, x, got)
				a.ParMulTBlock(w, k, u, gotT)
				if i, ok := bitsEqualVec(got, seq); !ok {
					t.Fatalf("%v k=%d workers=%d: ParMulBlock[%d] = %v, MulBlock %v", a, k, w, i, got[i], seq[i])
				}
				if i, ok := bitsEqualVec(gotT, seqT); !ok {
					t.Fatalf("%v k=%d workers=%d: ParMulTBlock[%d] = %v, MulTBlock %v", a, k, w, i, gotT[i], seqT[i])
				}
			}
		}
	}
}

func TestParMulTVecBitwiseEqualsMulTVec(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, sh := range parShapes {
		_, a := randSparseDense(rng, sh.r, sh.c, sh.fill)
		x := make([]float64, sh.r)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// Sprinkle exact zeros so the xi == 0 skip path is exercised.
		for i := 0; i < len(x); i += 3 {
			x[i] = 0
		}
		want := a.MulTVec(x, nil)
		for _, w := range sparseEqWorkers {
			// Pre-poison dst: ParMulTVec must fully overwrite it.
			got := make([]float64, sh.c)
			for j := range got {
				got[j] = math.NaN()
			}
			a.ParMulTVec(w, x, got)
			if j, ok := bitsEqualVec(got, want); !ok {
				t.Fatalf("%v workers=%d: col %d = %v, sequential %v", a, w, j, got[j], want[j])
			}
		}
	}
}

// TestCSRRoundTripProperty drives COO→CSR→dense→CSR round trips over
// random matrices and asserts the two CSR forms are structurally
// identical, including matrices with empty rows, empty columns, and
// duplicate COO entries that sum or cancel.
func TestCSRRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 200; trial++ {
		r, c := rng.Intn(12), rng.Intn(12)
		b := NewBuilder(r, c)
		n := 0
		if r > 0 && c > 0 {
			n = rng.Intn(3 * (r + 1) * (c + 1) / 2)
		}
		for e := 0; e < n; e++ {
			i, j := rng.Intn(r), rng.Intn(c)
			switch rng.Intn(4) {
			case 0:
				b.Add(i, j, 0) // ignored
			case 1: // exact cancellation pair
				v := rng.NormFloat64()
				b.Add(i, j, v)
				b.Add(i, j, -v)
			default:
				b.Add(i, j, rng.NormFloat64())
			}
		}
		a := b.Build()
		back := FromDense(a.ToDense(), 0)
		if back.Rows != a.Rows || back.Cols != a.Cols {
			t.Fatalf("trial %d: shape %dx%d -> %dx%d", trial, a.Rows, a.Cols, back.Rows, back.Cols)
		}
		if len(back.Val) != len(a.Val) {
			t.Fatalf("trial %d: nnz %d -> %d", trial, len(a.Val), len(back.Val))
		}
		for i := 0; i <= a.Rows; i++ {
			if back.RowPtr[i] != a.RowPtr[i] {
				t.Fatalf("trial %d: RowPtr[%d] %d vs %d", trial, i, a.RowPtr[i], back.RowPtr[i])
			}
		}
		for k := range a.Val {
			if back.ColIdx[k] != a.ColIdx[k] || math.Float64bits(back.Val[k]) != math.Float64bits(a.Val[k]) {
				t.Fatalf("trial %d: entry %d (%d,%v) vs (%d,%v)",
					trial, k, a.ColIdx[k], a.Val[k], back.ColIdx[k], back.Val[k])
			}
		}
	}
}

// TestParKernelsEmptyMatrix pins the degenerate cases the sharding must
// not break: zero rows, zero cols, and rows with no stored entries.
func TestParKernelsEmptyMatrix(t *testing.T) {
	for _, w := range sparseEqWorkers {
		empty := NewBuilder(0, 0).Build()
		if y := empty.ParMulVec(w, nil, nil); len(y) != 0 {
			t.Fatalf("workers=%d: ParMulVec on 0x0 returned %d elems", w, len(y))
		}
		if y := empty.ParMulTVec(w, nil, nil); len(y) != 0 {
			t.Fatalf("workers=%d: ParMulTVec on 0x0 returned %d elems", w, len(y))
		}

		b := NewBuilder(4, 3) // rows 0 and 2 empty
		b.Add(1, 1, 2)
		b.Add(3, 0, -1)
		a := b.Build()
		y := a.ParMulVec(w, []float64{1, 10, 100}, nil)
		wantY := []float64{0, 20, 0, -1}
		if i, ok := bitsEqualVec(y, wantY); !ok {
			t.Fatalf("workers=%d: empty-row MulVec[%d] = %v, want %v", w, i, y[i], wantY[i])
		}
		z := a.ParMulTVec(w, []float64{1, 1, 1, 1}, nil)
		wantZ := []float64{-1, 2, 0}
		if j, ok := bitsEqualVec(z, wantZ); !ok {
			t.Fatalf("workers=%d: empty-row MulTVec[%d] = %v, want %v", w, j, z[j], wantZ[j])
		}
	}
}

func BenchmarkParCSRMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(57))
	_, a := randSparseDense(rng, 20000, 5000, 0.01)
	x := make([]float64, a.Cols)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	dst := make([]float64, a.Rows)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.ParMulVec(w, x, dst)
			}
		})
	}
}
