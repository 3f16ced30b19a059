package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-10

func almostEqual(a, b, eps float64) bool {
	diff := math.Abs(a - b)
	if diff <= eps {
		return true
	}
	return diff <= eps*math.Max(math.Abs(a), math.Abs(b))
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func naiveDot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func TestDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 17, 100, 1023} {
		x, y := randVec(rng, n), randVec(rng, n)
		if got, want := Dot(x, y), naiveDot(x, y); !almostEqual(got, want, tol) {
			t.Errorf("n=%d: Dot=%v want %v", n, got, want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched lengths")
		}
	}()
	Dot(make([]float64, 3), make([]float64, 4))
}

func TestAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 3, 4, 9, 250} {
		x, y := randVec(rng, n), randVec(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = y[i] + 2.5*x[i]
		}
		Axpy(2.5, x, y)
		for i := range y {
			if !almostEqual(y[i], want[i], tol) {
				t.Fatalf("n=%d i=%d: got %v want %v", n, i, y[i], want[i])
			}
		}
	}
}

func TestAxpyZeroAlphaIsNoop(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	Axpy(0, x, y)
	for i, want := range []float64{4, 5, 6} {
		if y[i] != want {
			t.Fatalf("y[%d]=%v want %v", i, y[i], want)
		}
	}
}

func TestScal(t *testing.T) {
	x := []float64{1, -2, 3}
	Scal(-2, x)
	want := []float64{-2, 4, -6}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("x[%d]=%v want %v", i, x[i], want[i])
		}
	}
}

func TestNrm2(t *testing.T) {
	if got := Nrm2([]float64{3, 4}); !almostEqual(got, 5, tol) {
		t.Errorf("Nrm2(3,4)=%v want 5", got)
	}
	if got := Nrm2(nil); got != 0 {
		t.Errorf("Nrm2(nil)=%v want 0", got)
	}
	if got := Nrm2([]float64{0, 0}); got != 0 {
		t.Errorf("Nrm2(0,0)=%v want 0", got)
	}
}

func TestNrm2AvoidsOverflow(t *testing.T) {
	big := math.MaxFloat64 / 2
	got := Nrm2([]float64{big, big})
	want := big * math.Sqrt2
	if math.IsInf(got, 0) || !almostEqual(got, want, 1e-12) {
		t.Errorf("Nrm2 overflow-prone: got %v want %v", got, want)
	}
	tiny := math.SmallestNonzeroFloat64 * 4
	if got := Nrm2([]float64{tiny, tiny}); got == 0 {
		t.Errorf("Nrm2 underflowed to 0 for tiny inputs")
	}
}

func TestNrm2PropertyScaling(t *testing.T) {
	f := func(raw []float64, scale float64) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				v = 1
			}
			x[i] = v
		}
		s := math.Mod(math.Abs(scale), 10) + 0.5
		scaled := make([]float64, len(x))
		for i := range x {
			scaled[i] = s * x[i]
		}
		return almostEqual(Nrm2(scaled), s*Nrm2(x), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func naiveGemm(m, n, k int, a, b []float64) []float64 {
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func TestGemvMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {5, 3}, {17, 33}, {64, 64}} {
		m, n := dims[0], dims[1]
		a, x := randVec(rng, m*n), randVec(rng, n)
		y := make([]float64, m)
		Gemv(m, n, 1, a, n, x, 0, y)
		want := naiveGemm(m, 1, n, a, x)
		for i := range y {
			if !almostEqual(y[i], want[i], 1e-9) {
				t.Fatalf("m=%d n=%d i=%d: %v vs %v", m, n, i, y[i], want[i])
			}
		}
	}
}

func TestGemvAlphaBeta(t *testing.T) {
	a := []float64{1, 2, 3, 4} // 2x2
	x := []float64{1, 1}
	y := []float64{10, 20}
	Gemv(2, 2, 2, a, 2, x, 3, y) // y = 2*A*x + 3*y
	if y[0] != 2*3+30 || y[1] != 2*7+60 {
		t.Fatalf("got %v", y)
	}
}

func TestGemvTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, n := 23, 11
	a := randVec(rng, m*n)
	x := randVec(rng, m)
	y := make([]float64, n)
	GemvT(m, n, 1, a, n, x, 0, y)
	// explicit transpose reference
	at := make([]float64, n*m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			at[j*m+i] = a[i*n+j]
		}
	}
	want := make([]float64, n)
	Gemv(n, m, 1, at, m, x, 0, want)
	for j := range y {
		if !almostEqual(y[j], want[j], 1e-9) {
			t.Fatalf("j=%d: %v vs %v", j, y[j], want[j])
		}
	}
}

func TestGer(t *testing.T) {
	a := make([]float64, 6) // 2x3
	Ger(2, 3, 2, []float64{1, 2}, []float64{3, 4, 5}, a, 3)
	want := []float64{6, 8, 10, 12, 16, 20}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("a=%v want %v", a, want)
		}
	}
}

func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {100, 97, 103}, {129, 64, 200}} {
		m, n, k := d[0], d[1], d[2]
		a, b := randVec(rng, m*k), randVec(rng, k*n)
		c := make([]float64, m*n)
		Gemm(m, n, k, 1, a, k, b, n, 0, c, n)
		want := naiveGemm(m, n, k, a, b)
		for i := range c {
			if !almostEqual(c[i], want[i], 1e-8) {
				t.Fatalf("dims=%v i=%d: %v vs %v", d, i, c[i], want[i])
			}
		}
	}
}

func TestGemmBetaAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, n, k := 13, 9, 7
	a, b := randVec(rng, m*k), randVec(rng, k*n)
	c := randVec(rng, m*n)
	want := naiveGemm(m, n, k, a, b)
	for i := range want {
		want[i] = 0.5*want[i] + 2*c[i]
	}
	Gemm(m, n, k, 0.5, a, k, b, n, 2, c, n)
	for i := range c {
		if !almostEqual(c[i], want[i], 1e-8) {
			t.Fatalf("i=%d: %v vs %v", i, c[i], want[i])
		}
	}
}

func TestGemmTAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range [][3]int{{3, 4, 5}, {50, 40, 120}, {97, 101, 64}} {
		m, n, k := d[0], d[1], d[2]
		a := randVec(rng, k*m) // A is k×m
		b := randVec(rng, k*n)
		c := make([]float64, m*n)
		GemmTA(m, n, k, 1, a, m, b, n, 0, c, n)
		// naive: C[i][j] = sum_p A[p][i]*B[p][j]
		want := make([]float64, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for p := 0; p < k; p++ {
					s += a[p*m+i] * b[p*n+j]
				}
				want[i*n+j] = s
			}
		}
		for i := range c {
			if !almostEqual(c[i], want[i], 1e-8) {
				t.Fatalf("dims=%v i=%d: %v vs %v", d, i, c[i], want[i])
			}
		}
	}
}

func TestGemmTBMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, n, k := 31, 17, 23
	a := randVec(rng, m*k)
	b := randVec(rng, n*k) // B is n×k
	c := make([]float64, m*n)
	GemmTB(m, n, k, 1, a, k, b, k, 0, c, n)
	want := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[j*k+p]
			}
			want[i*n+j] = s
		}
	}
	for i := range c {
		if !almostEqual(c[i], want[i], 1e-8) {
			t.Fatalf("i=%d: %v vs %v", i, c[i], want[i])
		}
	}
}

func TestGemmStridedViews(t *testing.T) {
	// Multiply 2x2 blocks embedded in larger matrices with lda > n.
	a := []float64{
		1, 2, 99,
		3, 4, 99,
	}
	b := []float64{
		5, 6, 88,
		7, 8, 88,
	}
	c := make([]float64, 2*4)
	Gemm(2, 2, 2, 1, a, 3, b, 3, 0, c, 4)
	// only the 2x2 leading block of each row of C is written
	if c[0] != 19 || c[1] != 22 || c[4] != 43 || c[5] != 50 {
		t.Fatalf("c=%v", c)
	}
}

func TestGemmAssociativityProperty(t *testing.T) {
	// (A*B)*x == A*(B*x) for random small matrices.
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n, k := 2+r.Intn(10), 2+r.Intn(10), 2+r.Intn(10)
		a, b, x := randVec(rng, m*k), randVec(rng, k*n), randVec(rng, n)
		ab := make([]float64, m*n)
		Gemm(m, n, k, 1, a, k, b, n, 0, ab, n)
		lhs := make([]float64, m)
		Gemv(m, n, 1, ab, n, x, 0, lhs)
		bx := make([]float64, k)
		Gemv(k, n, 1, b, n, x, 0, bx)
		rhs := make([]float64, m)
		Gemv(m, k, 1, a, k, bx, 0, rhs)
		for i := range lhs {
			if !almostEqual(lhs[i], rhs[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGemm256(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	n := 256
	a, bb := randVec(rng, n*n), randVec(rng, n*n)
	c := make([]float64, n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(n, n, n, 1, a, n, bb, n, 0, c, n)
	}
}

func BenchmarkDot4096(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x, y := randVec(rng, 4096), randVec(rng, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}
