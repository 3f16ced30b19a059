package decomp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"srda/internal/mat"
)

func randDense(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randSPD returns a random symmetric positive definite matrix AᵀA + I.
func randSPD(rng *rand.Rand, n int) *mat.Dense {
	a := randDense(rng, n+3, n)
	g := mat.Gram(a)
	for i := 0; i < n; i++ {
		g.Set(i, i, g.At(i, i)+1)
	}
	return g
}

func TestCholeskyFactorReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := randSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rtr := mat.MulTA(ch.R, ch.R)
		if d := mat.MaxAbsDiff(rtr, a); d > 1e-8*(1+a.Norm()) {
			t.Fatalf("n=%d: RᵀR differs from A by %v", n, d)
		}
		// R upper triangular with positive diagonal
		for i := 0; i < n; i++ {
			if ch.R.At(i, i) <= 0 {
				t.Fatalf("nonpositive diagonal at %d", i)
			}
			for j := 0; j < i; j++ {
				if ch.R.At(i, j) != 0 {
					t.Fatalf("nonzero below diagonal at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestCholeskySolveVec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 30
	a := randSPD(rng, n)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := a.MulVec(xTrue, nil)
	x := ch.SolveVec(b, nil)
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-7 {
			t.Fatalf("x[%d]=%v want %v", i, x[i], xTrue[i])
		}
	}
}

func TestCholeskySolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 12
	a := randSPD(rng, n)
	xTrue := randDense(rng, n, 4)
	b := mat.Mul(a, xTrue)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.Solve(b)
	if d := mat.MaxAbsDiff(x, xTrue); d > 1e-7 {
		t.Fatalf("solution differs by %v", d)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := mat.FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err=%v want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskySolvePropertyRandomSPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		a := randSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := ch.SolveVec(b, nil)
		ax := a.MulVec(x, nil)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-6*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func orthoError(q *mat.Dense) float64 {
	g := mat.MulTA(q, q)
	var worst float64
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if d := math.Abs(g.At(i, j) - want); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func TestQRReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][2]int{{5, 3}, {10, 10}, {40, 7}, {3, 5}} {
		m, n := dims[0], dims[1]
		a := randDense(rng, m, n)
		f := NewQR(a)
		q, r := f.ThinQ(), f.R()
		qr := mat.Mul(q, r)
		if d := mat.MaxAbsDiff(qr, a); d > 1e-9 {
			t.Fatalf("dims=%v: QR differs from A by %v", dims, d)
		}
		if e := orthoError(q); e > 1e-9 {
			t.Fatalf("dims=%v: Q not orthonormal, err=%v", dims, e)
		}
		// R upper triangular
		for i := 0; i < r.Rows; i++ {
			for j := 0; j < i && j < r.Cols; j++ {
				if math.Abs(r.At(i, j)) > 1e-12 {
					t.Fatalf("R not triangular at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestQRDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDense(rng, 6, 4)
	before := a.Clone()
	NewQR(a)
	if !mat.Equalish(a, before, 0) {
		t.Fatal("NewQR modified its input")
	}
}

func TestGramSchmidtOrthonormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randDense(rng, 20, 6)
	kept := GramSchmidt(a, 1e-10)
	if kept != 6 {
		t.Fatalf("kept=%d want 6", kept)
	}
	if e := orthoError(a); e > 1e-10 {
		t.Fatalf("ortho error %v", e)
	}
}

func TestGramSchmidtDetectsDependence(t *testing.T) {
	a := mat.NewDense(4, 3)
	for i := 0; i < 4; i++ {
		a.Set(i, 0, 1)
		a.Set(i, 1, 2) // dependent on column 0
		a.Set(i, 2, float64(i))
	}
	kept := GramSchmidt(a, 1e-10)
	if kept != 2 {
		t.Fatalf("kept=%d want 2", kept)
	}
	// dependent column must be zeroed
	for i := 0; i < 4; i++ {
		if a.At(i, 1) != 0 {
			t.Fatal("dependent column not zeroed")
		}
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := mat.FromRows([][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	eig, err := NewSymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, w := range want {
		if math.Abs(eig.Values[i]-w) > 1e-12 {
			t.Fatalf("values=%v", eig.Values)
		}
	}
}

func TestSymEigKnown2x2(t *testing.T) {
	a := mat.FromRows([][]float64{{2, 1}, {1, 2}})
	eig, err := NewSymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig.Values[0]-3) > 1e-12 || math.Abs(eig.Values[1]-1) > 1e-12 {
		t.Fatalf("values=%v want [3 1]", eig.Values)
	}
}

func TestSymEigReconstructsAndOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 3, 10, 40} {
		// random symmetric matrix (possibly indefinite)
		b := randDense(rng, n, n)
		a := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, (b.At(i, j)+b.At(j, i))/2)
			}
		}
		eig, err := NewSymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		if e := orthoError(eig.Vectors); e > 1e-9 {
			t.Fatalf("n=%d: eigenvectors not orthonormal (%v)", n, e)
		}
		// A V = V diag(λ)
		av := mat.Mul(a, eig.Vectors)
		vl := eig.Vectors.Clone()
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				vl.Set(i, j, vl.At(i, j)*eig.Values[j])
			}
		}
		if d := mat.MaxAbsDiff(av, vl); d > 1e-8*(1+a.Norm()) {
			t.Fatalf("n=%d: AV != VΛ, diff %v", n, d)
		}
		// descending order
		for j := 1; j < n; j++ {
			if eig.Values[j] > eig.Values[j-1]+1e-12 {
				t.Fatalf("values not sorted: %v", eig.Values)
			}
		}
	}
}

func TestSymEigTraceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		b := randDense(rng, n, n)
		a := mat.NewDense(n, n)
		var trace float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, (b.At(i, j)+b.At(j, i))/2)
			}
			trace += a.At(i, i)
		}
		eig, err := NewSymEig(a)
		if err != nil {
			return false
		}
		var sum float64
		for _, l := range eig.Values {
			sum += l
		}
		return math.Abs(sum-trace) <= 1e-8*(1+math.Abs(trace))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSVDReconstructsFullRank(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, dims := range [][2]int{{8, 5}, {5, 8}, {20, 20}, {1, 4}, {4, 1}} {
		a := randDense(rng, dims[0], dims[1])
		svd, err := NewSVD(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		if svd.Rank() != min(dims[0], dims[1]) {
			t.Fatalf("dims=%v rank=%d", dims, svd.Rank())
		}
		rec := svd.Reconstruct()
		if d := mat.MaxAbsDiff(rec, a); d > 1e-7*(1+a.Norm()) {
			t.Fatalf("dims=%v: reconstruction off by %v", dims, d)
		}
		if e := svd.OrthoError(); e > 1e-7 {
			t.Fatalf("dims=%v: singular vectors not orthonormal (%v)", dims, e)
		}
	}
}

func TestSVDDetectsRankDeficiency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// rank-3 matrix: 10x3 times 3x7
	a := mat.Mul(randDense(rng, 10, 3), randDense(rng, 3, 7))
	svd, err := NewSVD(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if svd.Rank() != 3 {
		t.Fatalf("rank=%d want 3", svd.Rank())
	}
	rec := svd.Reconstruct()
	if d := mat.MaxAbsDiff(rec, a); d > 1e-7*(1+a.Norm()) {
		t.Fatalf("low-rank reconstruction off by %v", d)
	}
}

func TestSVDSingularValuesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randDense(rng, 15, 9)
	svd, err := NewSVD(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < svd.Rank(); i++ {
		if svd.Sigma[i] > svd.Sigma[i-1]+1e-12 {
			t.Fatalf("sigma not sorted: %v", svd.Sigma)
		}
	}
}

func TestSVDFrobeniusInvariant(t *testing.T) {
	// ‖A‖_F² == Σ σᵢ² for full-rank random matrices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(12), 1+rng.Intn(12)
		a := randDense(rng, m, n)
		svd, err := NewSVD(a, 0)
		if err != nil {
			return false
		}
		var ss float64
		for _, s := range svd.Sigma {
			ss += s * s
		}
		fn := a.Norm()
		return math.Abs(ss-fn*fn) <= 1e-7*(1+fn*fn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSVDMatchesEigOnGram(t *testing.T) {
	// σᵢ² of A must equal eigenvalues of AᵀA.
	rng := rand.New(rand.NewSource(14))
	a := randDense(rng, 12, 7)
	svd, err := NewSVD(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	eig, err := NewSymEig(mat.Gram(a))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < svd.Rank(); i++ {
		if math.Abs(svd.Sigma[i]*svd.Sigma[i]-eig.Values[i]) > 1e-7*(1+eig.Values[0]) {
			t.Fatalf("sigma²=%v vs eig=%v", svd.Sigma[i]*svd.Sigma[i], eig.Values[i])
		}
	}
}

func TestRandomizedSVDMatchesExactOnLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	// exactly rank-4 matrix: randomized SVD at k=4 must be near-exact
	a := mat.Mul(randDense(rng, 60, 4), randDense(rng, 4, 30))
	rs, err := NewRandomizedSVD(a, 4, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewSVD(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4 && j < rs.Rank(); j++ {
		if math.Abs(rs.Sigma[j]-exact.Sigma[j]) > 1e-6*(1+exact.Sigma[0]) {
			t.Fatalf("sigma %d: %v vs %v", j, rs.Sigma[j], exact.Sigma[j])
		}
	}
	rec := rs.Reconstruct()
	if d := mat.MaxAbsDiff(rec, a); d > 1e-6*(1+a.Norm()) {
		t.Fatalf("reconstruction off by %v", d)
	}
}

func TestRandomizedSVDApproximatesLeadingSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	// full-rank with decaying spectrum
	a := randDense(rng, 80, 50)
	exact, err := NewSVD(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRandomizedSVD(a, 5, 10, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		rel := math.Abs(rs.Sigma[j]-exact.Sigma[j]) / exact.Sigma[j]
		if rel > 0.05 {
			t.Fatalf("sigma %d off by %.1f%%", j, 100*rel)
		}
	}
	if e := rs.OrthoError(); e > 1e-8 {
		t.Fatalf("factors not orthonormal (%v)", e)
	}
}

func TestRandomizedSVDDeterministicBySeed(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	a := randDense(rng, 30, 20)
	r1, err := NewRandomizedSVD(a, 3, 5, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRandomizedSVD(a, 3, 5, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equalish(r1.U, r2.U, 0) {
		t.Fatal("same seed must give identical factors")
	}
}

func TestRandomizedSVDValidation(t *testing.T) {
	a := mat.NewDense(5, 5)
	if _, err := NewRandomizedSVD(a, 0, 0, 0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewRandomizedSVD(a, 3, 0, 0, 1); err == nil {
		t.Fatal("zero matrix should report rank 0")
	}
}

func TestSolveUpperHelpers(t *testing.T) {
	r := mat.FromRows([][]float64{
		{2, 1, -1},
		{0, 3, 0.5},
		{0, 0, 1.5},
	})
	// SolveUpperVec: R x = v
	v := []float64{1, 2, 3}
	want := append([]float64(nil), v...)
	SolveUpperVec(r, v)
	rv := r.MulVec(v, nil)
	for i := range want {
		if math.Abs(rv[i]-want[i]) > 1e-12 {
			t.Fatalf("SolveUpperVec: R·x != v at %d", i)
		}
	}
	// SolveUpperTranspose: Rᵀ X = B
	rng := rand.New(rand.NewSource(70))
	b := randDense(rng, 3, 4)
	x := SolveUpperTranspose(r, b)
	rtx := mat.Mul(r.T(), x)
	if d := mat.MaxAbsDiff(rtx, b); d > 1e-12 {
		t.Fatalf("SolveUpperTranspose residual %v", d)
	}
}
