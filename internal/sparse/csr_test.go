package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"srda/internal/mat"
)

// randSparseDense returns a random dense matrix with the given fill fraction
// and its CSR compression, for cross-checking.
func randSparseDense(rng *rand.Rand, r, c int, fill float64) (*mat.Dense, *CSR) {
	d := mat.NewDense(r, c)
	b := NewBuilder(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < fill {
				v := rng.NormFloat64()
				d.Set(i, j, v)
				b.Add(i, j, v)
			}
		}
	}
	return d, b.Build()
}

func vecAlmostEqual(t *testing.T, got, want []float64, eps float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > eps {
			t.Fatalf("i=%d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestBuilderBuildsSortedRows(t *testing.T) {
	b := NewBuilder(2, 4)
	b.Add(1, 3, 1)
	b.Add(1, 0, 2)
	b.Add(0, 2, 3)
	a := b.Build()
	if a.NNZ() != 3 {
		t.Fatalf("nnz=%d", a.NNZ())
	}
	cols, vals := a.Row(1)
	if cols[0] != 0 || cols[1] != 3 || vals[0] != 2 || vals[1] != 1 {
		t.Fatalf("row1 cols=%v vals=%v", cols, vals)
	}
}

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(1, 2)
	b.Add(0, 1, 2)
	b.Add(0, 1, 3)
	a := b.Build()
	if a.At(0, 1) != 5 {
		t.Fatalf("dup sum=%v", a.At(0, 1))
	}
}

func TestBuilderDropsCancellations(t *testing.T) {
	b := NewBuilder(1, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, -1)
	b.Add(0, 1, 2)
	a := b.Build()
	if a.NNZ() != 1 || a.At(0, 0) != 0 {
		t.Fatalf("cancellation kept: nnz=%d", a.NNZ())
	}
}

func TestBuilderEmptyRows(t *testing.T) {
	b := NewBuilder(4, 3)
	b.Add(2, 1, 5)
	a := b.Build()
	for _, i := range []int{0, 1, 3} {
		cols, _ := a.Row(i)
		if len(cols) != 0 {
			t.Fatalf("row %d should be empty", i)
		}
	}
	if a.At(2, 1) != 5 {
		t.Fatal("missing entry")
	}
}

func TestAtZeroForMissing(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	a := b.Build()
	if a.At(1, 1) != 0 {
		t.Fatal("missing entry should read 0")
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, a := randSparseDense(rng, 40, 25, 0.1)
	x := make([]float64, 25)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	vecAlmostEqual(t, a.MulVec(x, nil), d.MulVec(x, nil), 1e-10)
}

func TestMulTVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, a := randSparseDense(rng, 33, 18, 0.15)
	x := make([]float64, 33)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	vecAlmostEqual(t, a.MulTVec(x, nil), d.MulTVec(x, nil), 1e-10)
}

func TestMulTVecReusesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, a := randSparseDense(rng, 10, 6, 0.3)
	x := make([]float64, 10)
	for i := range x {
		x[i] = 1
	}
	dst := []float64{9, 9, 9, 9, 9, 9}
	got := a.MulTVec(x, dst)
	want := a.MulTVec(x, nil)
	vecAlmostEqual(t, got, want, 0)
}

func TestRoundTripDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d, a := randSparseDense(rng, 12, 9, 0.2)
	if !mat.Equalish(a.ToDense(), d, 0) {
		t.Fatal("ToDense mismatch")
	}
	back := FromDense(d, 0)
	if !mat.Equalish(back.ToDense(), d, 0) {
		t.Fatal("FromDense round-trip mismatch")
	}
}

func TestFromDenseDropTol(t *testing.T) {
	d := mat.FromRows([][]float64{{1e-12, 1}, {0.5, -1e-13}})
	a := FromDense(d, 1e-9)
	if a.NNZ() != 2 {
		t.Fatalf("nnz=%d want 2", a.NNZ())
	}
}

func TestSelectRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d, a := randSparseDense(rng, 10, 7, 0.3)
	idx := []int{3, 3, 0, 9}
	sub := a.SelectRows(idx)
	if sub.Rows != 4 {
		t.Fatalf("rows=%d", sub.Rows)
	}
	for r, i := range idx {
		for j := 0; j < 7; j++ {
			if sub.At(r, j) != d.At(i, j) {
				t.Fatalf("(%d,%d)", r, j)
			}
		}
	}
}

func TestRowDotAndNorm(t *testing.T) {
	b := NewBuilder(2, 4)
	b.Add(0, 1, 3)
	b.Add(0, 3, 4)
	a := b.Build()
	if got := a.RowNorm2(0); got != 25 {
		t.Fatalf("RowNorm2=%v", got)
	}
}

func TestStatsAndString(t *testing.T) {
	b := NewBuilder(4, 5)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	a := b.Build()
	if a.NNZ() != 2 {
		t.Fatalf("NNZ=%d", a.NNZ())
	}
	if got := a.AvgRowNNZ(); got != 0.5 {
		t.Fatalf("AvgRowNNZ=%v", got)
	}
	if got := a.Density(); got != 0.1 {
		t.Fatalf("Density=%v", got)
	}
	if a.String() == "" {
		t.Fatal("empty String")
	}
}

func TestCSRMatVecPropertyAgainstDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(20), 1+rng.Intn(20)
		d, a := randSparseDense(rng, r, c, 0.2)
		x := make([]float64, c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ys, yd := a.MulVec(x, nil), d.MulVec(x, nil)
		for i := range ys {
			if math.Abs(ys[i]-yd[i]) > 1e-9 {
				return false
			}
		}
		xt := make([]float64, r)
		for i := range xt {
			xt[i] = rng.NormFloat64()
		}
		zs, zd := a.MulTVec(xt, nil), d.MulTVec(xt, nil)
		for i := range zs {
			if math.Abs(zs[i]-zd[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAdjointIdentityProperty(t *testing.T) {
	// <A x, y> == <x, Aᵀ y> — the identity LSQR relies on.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(15), 1+rng.Intn(15)
		_, a := randSparseDense(rng, r, c, 0.3)
		x := make([]float64, c)
		y := make([]float64, r)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		ax := a.MulVec(x, nil)
		aty := a.MulTVec(y, nil)
		var lhs, rhs float64
		for i := range ax {
			lhs += ax[i] * y[i]
		}
		for i := range x {
			rhs += x[i] * aty[i]
		}
		return math.Abs(lhs-rhs) <= 1e-8*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
