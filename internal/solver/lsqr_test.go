package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"srda/internal/decomp"
	"srda/internal/mat"
	"srda/internal/sparse"
)

func randDense(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// ridgeDirect solves (AᵀA + αI)x = Aᵀb by Cholesky, the ground truth the
// iterative solvers must match.
func ridgeDirect(t *testing.T, a *mat.Dense, b []float64, alpha float64) []float64 {
	t.Helper()
	g := mat.Gram(a)
	for i := 0; i < g.Rows; i++ {
		g.Set(i, i, g.At(i, i)+alpha)
	}
	ch, err := decomp.NewCholesky(g)
	if err != nil {
		t.Fatalf("ridgeDirect: %v", err)
	}
	return ch.SolveVec(a.MulTVec(b, nil), nil)
}

func TestLSQRConsistentSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, n := 60, 12
	a := randDense(rng, m, n)
	xTrue := randVec(rng, n)
	b := a.MulVec(xTrue, nil)
	res := LSQR(DenseOp{A: a}, b, LSQRParams{MaxIter: 200})
	for i := range xTrue {
		if math.Abs(res.X[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("x[%d]=%v want %v (reason %q)", i, res.X[i], xTrue[i], res.Reason)
		}
	}
}

func TestLSQRMatchesNormalEquations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, n := 80, 15
	a := randDense(rng, m, n)
	b := randVec(rng, m)
	want := ridgeDirect(t, a, b, 0)
	res := LSQR(DenseOp{A: a}, b, LSQRParams{MaxIter: 300, ATol: 1e-12, BTol: 1e-12})
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d]=%v want %v", i, res.X[i], want[i])
		}
	}
}

func TestLSQRDampedMatchesRidge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n := 50, 10
	a := randDense(rng, m, n)
	b := randVec(rng, m)
	alpha := 1.0
	want := ridgeDirect(t, a, b, alpha)
	res := LSQR(DenseOp{A: a}, b, LSQRParams{Damp: math.Sqrt(alpha), MaxIter: 300, ATol: 1e-12, BTol: 1e-12})
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d]=%v want %v", i, res.X[i], want[i])
		}
	}
}

func TestLSQRUnderdeterminedDamped(t *testing.T) {
	// n > m: ridge still has a unique solution; LSQR must find it.
	rng := rand.New(rand.NewSource(4))
	m, n := 10, 40
	a := randDense(rng, m, n)
	b := randVec(rng, m)
	alpha := 0.5
	// Direct solution via dual form: x = Aᵀ(AAᵀ + αI)⁻¹ b.
	g := mat.GramT(a)
	for i := 0; i < m; i++ {
		g.Set(i, i, g.At(i, i)+alpha)
	}
	ch, err := decomp.NewCholesky(g)
	if err != nil {
		t.Fatal(err)
	}
	want := a.MulTVec(ch.SolveVec(b, nil), nil)
	res := LSQR(DenseOp{A: a}, b, LSQRParams{Damp: math.Sqrt(alpha), MaxIter: 400, ATol: 1e-13, BTol: 1e-13})
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d]=%v want %v", i, res.X[i], want[i])
		}
	}
}

func TestLSQRZeroRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDense(rng, 5, 3)
	res := LSQR(DenseOp{A: a}, make([]float64, 5), LSQRParams{})
	for _, v := range res.X {
		if v != 0 {
			t.Fatal("x must be zero for zero rhs")
		}
	}
}

func TestLSQRSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, n := 70, 30
	d := mat.NewDense(m, n)
	bld := sparse.NewBuilder(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.12 {
				v := rng.NormFloat64()
				d.Set(i, j, v)
				bld.Add(i, j, v)
			}
		}
	}
	s := bld.Build()
	b := randVec(rng, m)
	p := LSQRParams{Damp: 0.3, MaxIter: 200, ATol: 1e-12, BTol: 1e-12}
	xd := LSQR(DenseOp{A: d}, b, p).X
	xs := LSQR(SparseOp{A: s}, b, p).X
	for i := range xd {
		if math.Abs(xd[i]-xs[i]) > 1e-8 {
			t.Fatalf("sparse/dense divergence at %d: %v vs %v", i, xd[i], xs[i])
		}
	}
}

func TestLSQRConvergesFastOnWellConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, n := 200, 20
	a := randDense(rng, m, n)
	b := randVec(rng, m)
	res := LSQR(DenseOp{A: a}, b, LSQRParams{MaxIter: 100})
	if res.Iters > 60 {
		t.Fatalf("LSQR took %d iterations on a well-conditioned system", res.Iters)
	}
}

func TestAugmentedOpEquivalentToExplicitOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, n := 40, 9
	a := randDense(rng, m, n)
	aug := mat.NewDense(m, n+1)
	for i := 0; i < m; i++ {
		copy(aug.RowView(i)[:n], a.RowView(i))
		aug.Set(i, n, 1)
	}
	x := randVec(rng, n+1)
	got := AugmentedOp{DenseOp{A: a}}.Apply(x, nil)
	want := aug.MulVec(x, nil)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Apply mismatch at %d", i)
		}
	}
	y := randVec(rng, m)
	gt := AugmentedOp{DenseOp{A: a}}.ApplyT(y, nil)
	wt := aug.MulTVec(y, nil)
	for i := range gt {
		if math.Abs(gt[i]-wt[i]) > 1e-12 {
			t.Fatalf("ApplyT mismatch at %d", i)
		}
	}
}

func TestCGNEMatchesRidgeDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m, n := 60, 14
	a := randDense(rng, m, n)
	b := randVec(rng, m)
	alpha := 0.7
	want := ridgeDirect(t, a, b, alpha)
	res := CGNE(DenseOp{A: a}, b, alpha, 500, 1e-12)
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d]=%v want %v", i, res.X[i], want[i])
		}
	}
}

func TestLSQRAndCGNEAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 10+rng.Intn(30), 2+rng.Intn(8)
		a := randDense(rng, m, n)
		b := randVec(rng, m)
		alpha := 0.1 + rng.Float64()
		x1 := LSQR(DenseOp{A: a}, b, LSQRParams{Damp: math.Sqrt(alpha), MaxIter: 400, ATol: 1e-13, BTol: 1e-13}).X
		x2 := CGNE(DenseOp{A: a}, b, alpha, 1000, 1e-13).X
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-5*(1+math.Abs(x1[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLSQRIterationLimitRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randDense(rng, 100, 50)
	b := randVec(rng, 100)
	res := LSQR(DenseOp{A: a}, b, LSQRParams{MaxIter: 3, ATol: 1e-16, BTol: 1e-16})
	if res.Iters > 3 {
		t.Fatalf("Iters=%d exceeds MaxIter", res.Iters)
	}
}

func TestLSQRPanicsOnBadRHS(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LSQR(DenseOp{A: mat.NewDense(3, 2)}, make([]float64, 4), LSQRParams{})
}

func TestDiskOpStickyError(t *testing.T) {
	// A DiskCSR whose file has been closed must surface the error through
	// Err and produce zero vectors, not panic.
	rng := rand.New(rand.NewSource(30))
	d := mat.NewDense(6, 4)
	b := sparse.NewBuilder(6, 4)
	for i := 0; i < 6; i++ {
		v := rng.NormFloat64()
		d.Set(i, i%4, v)
		b.Add(i, i%4, v)
	}
	s := b.Build()
	dir := t.TempDir()
	path := dir + "/m.csr"
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	dc, err := sparse.OpenDiskCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	op := &DiskOp{A: dc}
	if m, n := op.Dims(); m != 6 || n != 4 {
		t.Fatalf("Dims %d %d", m, n)
	}
	x := []float64{1, 1, 1, 1}
	out := op.Apply(x, nil)
	want := s.MulVec(x, nil)
	for i := range want {
		if out[i] != want[i] {
			t.Fatal("healthy DiskOp should match in-memory")
		}
	}
	dc.Close() // sabotage
	out = op.Apply(x, nil)
	for _, v := range out {
		if v != 0 {
			t.Fatal("failed operator should produce zeros")
		}
	}
	if op.Err() == nil {
		t.Fatal("error not recorded")
	}
	// subsequent ApplyT short-circuits
	if out := op.ApplyT(make([]float64, 6), nil); out[0] != 0 {
		t.Fatal("sticky error not honored")
	}
}

func TestOperatorDims(t *testing.T) {
	a := mat.NewDense(3, 5)
	if m, n := (SparseOp{A: sparse.FromDense(a, 0)}).Dims(); m != 3 || n != 5 {
		t.Fatalf("SparseOp dims %d %d", m, n)
	}
}

// TestLockstepEqualsSingleColumnSolvesBitwise checks the lockstep solver
// column by column against LSQR on that column alone: the solution bits,
// iteration count, residual and stopping reason must all agree, for
// block operators (SparseOp, AugmentedOp over it) and for operators that
// go through the per-column adapter, at several worker counts.  The
// right-hand sides include an all-zero column, a column with Aᵀb = 0,
// columns that converge at different iterations, and columns that reach
// the iteration cap.  ParLockstepLSQR, which solves contiguous
// column groups on separate workers, must agree the same way.
func TestLockstepEqualsSingleColumnSolvesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, n, k := 90, 40, 7
	d := mat.NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				d.Set(i, j, rng.NormFloat64())
			}
		}
	}
	for j := 0; j < n; j++ { // row m-1 is empty: e_{m-1} has Aᵀb = 0
		d.Set(m-1, j, 0)
	}
	s := sparse.FromDense(d, 0)
	b := make([]float64, m*k)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for i := 0; i < m; i++ {
		b[i*k+1] = 0                           // zero right-hand side
		b[i*k+2] = 0                           // Aᵀb = 0 without the intercept
		b[i*k+3] = d.At(i, 0) + 0.5*d.At(i, 5) // consistent: converges early
	}
	b[(m-1)*k+2] = 1
	ops := []struct {
		name string
		op   func(workers int) Operator
	}{
		{"sparse", func(w int) Operator { return SparseOp{A: s, Workers: w} }},
		{"augmented-sparse", func(w int) Operator { return AugmentedOp{Inner: SparseOp{A: s, Workers: w}} }},
		{"dense", func(w int) Operator { return DenseOp{A: d, Workers: w} }},
		{"augmented-dense", func(w int) Operator { return AugmentedOp{Inner: DenseOp{A: d, Workers: w}} }},
		{"per-column", func(w int) Operator { return plainOp{SparseOp{A: s, Workers: w}} }},
	}
	p := LSQRParams{Damp: 0.2, MaxIter: 32}
	for _, tc := range ops {
		rows, cols := tc.op(1).Dims()
		want := make([]LSQRResult, k)
		for j := range want {
			rhs := make([]float64, rows)
			for i := range rhs {
				rhs[i] = b[i*k+j]
			}
			want[j] = LSQR(tc.op(1), rhs, p)
		}
		iters := map[int]bool{}
		for _, w := range want {
			iters[w.Iters] = true
		}
		if len(iters) < 3 {
			t.Fatalf("%s: columns stop at too few distinct iterations to test freezing: %v", tc.name, iters)
		}
		for _, workers := range []int{0, 1, 2, 3, 7} {
			solves := []struct {
				name string
				res  LockstepResult
			}{
				{"LockstepLSQR", LockstepLSQR(Blocked(tc.op(workers)), k, b, p)},
				{"ParLockstepLSQR", ParLockstepLSQR(workers, tc.op(workers), k, b, p)},
			}
			for _, solve := range solves {
				got, name := solve.res, tc.name+" "+solve.name
				for j, w := range want {
					if got.Iters[j] != w.Iters || got.Reasons[j] != w.Reason ||
						math.Float64bits(got.ResNorms[j]) != math.Float64bits(w.ResNorm) {
						t.Fatalf("%s workers=%d column %d: iters %d %q resnorm %v, single solve %d %q %v",
							name, workers, j, got.Iters[j], got.Reasons[j], got.ResNorms[j], w.Iters, w.Reason, w.ResNorm)
					}
					for i := 0; i < cols; i++ {
						if math.Float64bits(got.X[i*k+j]) != math.Float64bits(w.X[i]) {
							t.Fatalf("%s workers=%d column %d: x[%d] = %v, single solve %v", name, workers, j, i, got.X[i*k+j], w.X[i])
						}
					}
				}
			}
		}
	}
}

// plainOp hides the block methods of the operator it wraps, so solves on
// it go through Blocked's per-column adapter.
type plainOp struct{ Operator }

func TestLockstepNoColumns(t *testing.T) {
	op := DenseOp{A: mat.NewDense(4, 3)}
	for _, res := range []LockstepResult{
		LockstepLSQR(Blocked(op), 0, nil, LSQRParams{}),
		ParLockstepLSQR(2, op, 0, nil, LSQRParams{}),
	} {
		if len(res.X) != 0 || len(res.Iters) != 0 {
			t.Fatalf("k=0 solve returned %d x entries, %d counts", len(res.X), len(res.Iters))
		}
	}
}
