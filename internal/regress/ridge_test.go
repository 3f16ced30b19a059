package regress

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"srda/internal/mat"
	"srda/internal/obs"
	"srda/internal/solver"
	"srda/internal/sparse"
)

func randDense(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestPrimalRecoversExactSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, n := 60, 8
	x := randDense(rng, m, n)
	wTrue := randDense(rng, n, 3)
	y := mat.Mul(x, wTrue)
	model, err := FitDense(x, y, Options{Alpha: 0, Strategy: Primal})
	if err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(model.W, wTrue); d > 1e-7 {
		t.Fatalf("W off by %v", d)
	}
}

func TestPrimalDualAgreeForPositiveAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][2]int{{40, 10}, {10, 40}, {25, 25}} {
		x := randDense(rng, dims[0], dims[1])
		y := randDense(rng, dims[0], 4)
		opt := Options{Alpha: 0.8}
		opt.Strategy = Primal
		p, err := FitDense(x, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Strategy = Dual
		d, err := FitDense(x, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		if diff := mat.MaxAbsDiff(p.W, d.W); diff > 1e-7 {
			t.Fatalf("dims=%v: primal/dual differ by %v", dims, diff)
		}
	}
}

func TestLSQRAgreesWithPrimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n := 50, 12
	x := randDense(rng, m, n)
	y := randDense(rng, m, 3)
	opt := Options{Alpha: 0.5, Strategy: Primal}
	p, err := FitDense(x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt = Options{Alpha: 0.5, Strategy: IterLSQR, LSQRIter: 400}
	l, err := FitDense(x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(p.W, l.W); diff > 1e-5 {
		t.Fatalf("primal/lsqr differ by %v", diff)
	}
	if l.Iters == 0 {
		t.Fatal("LSQR model should record iterations")
	}
}

func TestInterceptEqualsAugmentedColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, n := 40, 6
	x := randDense(rng, m, n)
	y := randDense(rng, m, 2)
	withB, err := FitDense(x, y, Options{Alpha: 0.3, Strategy: Primal, Intercept: true})
	if err != nil {
		t.Fatal(err)
	}
	// manual augmentation
	xa := mat.NewDense(m, n+1)
	for i := 0; i < m; i++ {
		copy(xa.RowView(i), x.RowView(i))
		xa.Set(i, n, 1)
	}
	manual, err := FitDense(xa, y, Options{Alpha: 0.3, Strategy: Primal})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if math.Abs(withB.B[j]-manual.W.At(n, j)) > 1e-9 {
			t.Fatalf("intercept mismatch: %v vs %v", withB.B[j], manual.W.At(n, j))
		}
	}
	if d := mat.MaxAbsDiff(withB.W, manual.W.Slice(0, n, 0, 2).Clone()); d > 1e-9 {
		t.Fatalf("weights mismatch %v", d)
	}
}

func TestInterceptCapturesShift(t *testing.T) {
	// y = x·w + 10: model with intercept should find B≈10 and generalize.
	rng := rand.New(rand.NewSource(5))
	m, n := 100, 5
	x := randDense(rng, m, n)
	w := randDense(rng, n, 1)
	y := mat.Mul(x, w)
	for i := 0; i < m; i++ {
		y.Set(i, 0, y.At(i, 0)+10)
	}
	model, err := FitDense(x, y, Options{Alpha: 1e-8, Strategy: Primal, Intercept: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(model.B[0]-10) > 1e-3 {
		t.Fatalf("B=%v want ~10", model.B[0])
	}
}

func TestAutoStrategySelection(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tall := randDense(rng, 30, 5)
	wide := randDense(rng, 5, 30)
	y1 := randDense(rng, 30, 2)
	y2 := randDense(rng, 5, 2)
	m1, err := FitDense(tall, y1, Options{Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Strategy != Primal {
		t.Fatalf("tall matrix picked %v", m1.Strategy)
	}
	m2, err := FitDense(wide, y2, Options{Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Strategy != Dual {
		t.Fatalf("wide matrix picked %v", m2.Strategy)
	}
}

func TestFitOperatorSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, n := 60, 25
	d := mat.NewDense(m, n)
	b := sparse.NewBuilder(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.15 {
				v := rng.NormFloat64()
				d.Set(i, j, v)
				b.Add(i, j, v)
			}
		}
	}
	s := b.Build()
	y := randDense(rng, m, 3)
	opt := Options{Alpha: 0.4, Intercept: true, LSQRIter: 500}
	ms, err := FitOperator(solver.SparseOp{A: s}, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	md, err := FitDense(d, y, Options{Alpha: 0.4, Intercept: true, Strategy: Primal})
	if err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(ms.W, md.W); diff > 1e-4 {
		t.Fatalf("sparse-LSQR vs dense-primal differ by %v", diff)
	}
	for j := range ms.B {
		if math.Abs(ms.B[j]-md.B[j]) > 1e-4 {
			t.Fatalf("bias %d: %v vs %v", j, ms.B[j], md.B[j])
		}
	}
}

func TestShrinkageMonotoneInAlpha(t *testing.T) {
	// ‖W(α)‖ must shrink as α grows.
	rng := rand.New(rand.NewSource(8))
	x := randDense(rng, 30, 10)
	y := randDense(rng, 30, 1)
	var prev float64 = math.Inf(1)
	for _, alpha := range []float64{0.01, 0.1, 1, 10, 100} {
		model, err := FitDense(x, y, Options{Alpha: alpha, Strategy: Primal})
		if err != nil {
			t.Fatal(err)
		}
		nrm := model.W.Norm()
		if nrm > prev+1e-12 {
			t.Fatalf("norm increased: alpha=%v nrm=%v prev=%v", alpha, nrm, prev)
		}
		prev = nrm
	}
}

func TestErrorsOnBadInput(t *testing.T) {
	x := mat.NewDense(4, 2)
	y := mat.NewDense(5, 1)
	if _, err := FitDense(x, y, Options{}); err == nil {
		t.Fatal("row mismatch not detected")
	}
	y2 := mat.NewDense(4, 1)
	if _, err := FitDense(x, y2, Options{Alpha: -1}); err == nil {
		t.Fatal("negative alpha not detected")
	}
}

func TestRidgePropertyResidualGradientZero(t *testing.T) {
	// At the ridge optimum, Xᵀ(Xw − y) + αw = 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 5+rng.Intn(40), 2+rng.Intn(10)
		x := randDense(rng, m, n)
		y := randDense(rng, m, 1)
		alpha := 0.05 + rng.Float64()*2
		model, err := FitDense(x, y, Options{Alpha: alpha, Strategy: Primal})
		if err != nil {
			return false
		}
		pred := mat.Mul(x, model.W)
		pred.AddScaled(-1, y)
		grad := mat.MulTA(x, pred)
		grad.AddScaled(alpha, model.W)
		return grad.Norm() <= 1e-7*(1+y.Norm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestParallelLSQRMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	m, n, k := 120, 40, 8
	x := randDense(rng, m, n)
	y := randDense(rng, m, k)
	seq, err := FitDense(x, y, Options{Alpha: 0.7, Strategy: IterLSQR, LSQRIter: 150, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := FitDense(x, y, Options{Alpha: 0.7, Strategy: IterLSQR, LSQRIter: 150, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(seq.W, par.W); diff != 0 {
		t.Fatalf("parallel/sequential LSQR differ by %v (must be bitwise identical)", diff)
	}
	for j := range seq.B {
		if seq.B[j] != par.B[j] {
			t.Fatal("intercepts differ")
		}
	}
	if seq.Iters != par.Iters {
		t.Fatalf("iteration totals differ: %d vs %d", seq.Iters, par.Iters)
	}
}

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{Auto: "auto", Primal: "primal", Dual: "dual", IterLSQR: "lsqr", Strategy(99): "Strategy(99)"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Fatalf("%d.String()=%q want %q", int(s), got, want)
		}
	}
}

// TestStatsPerResponseTelemetry checks the LSQR path's per-response
// telemetry: one iteration count and one residual norm per response, with
// the total consistent everywhere it is reported.
func TestStatsPerResponseTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := randDense(rng, 50, 12)
	y := randDense(rng, 50, 4)
	model, err := FitDense(x, y, Options{Alpha: 0.5, Strategy: IterLSQR, LSQRIter: 40})
	if err != nil {
		t.Fatal(err)
	}
	st := model.Stats
	if st.Strategy != IterLSQR {
		t.Fatalf("stats strategy = %v", st.Strategy)
	}
	if len(st.IterCounts) != y.Cols || len(st.Residuals) != y.Cols {
		t.Fatalf("got %d iter counts, %d residuals for %d responses",
			len(st.IterCounts), len(st.Residuals), y.Cols)
	}
	sum := 0
	for j, c := range st.IterCounts {
		if c <= 0 {
			t.Fatalf("response %d took %d iterations", j, c)
		}
		sum += c
		if st.Residuals[j] < 0 || math.IsNaN(st.Residuals[j]) {
			t.Fatalf("response %d residual %v", j, st.Residuals[j])
		}
	}
	if sum != st.Iters || model.Iters != st.Iters {
		t.Fatalf("iteration totals inconsistent: sum %d, Stats.Iters %d, Model.Iters %d",
			sum, st.Iters, model.Iters)
	}
}

// TestStatsDirectSolves checks the direct paths report their strategy with
// zero iterations and no per-response slices.
func TestStatsDirectSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := randDense(rng, 30, 8)
	y := randDense(rng, 30, 3)
	for _, strat := range []Strategy{Primal, Dual} {
		model, err := FitDense(x, y, Options{Alpha: 0.5, Strategy: strat, Intercept: strat == Primal})
		if err != nil {
			t.Fatal(err)
		}
		st := model.Stats
		if st.Strategy != strat || st.Iters != 0 || model.Iters != 0 {
			t.Fatalf("%v: stats = %+v, model iters = %d", strat, st, model.Iters)
		}
		if st.IterCounts != nil || st.Residuals != nil {
			t.Fatalf("%v: direct solve reported per-response slices", strat)
		}
	}
}

// TestTraceSpansPerStrategy checks each strategy emits its phase spans as
// children of the caller-provided span.
func TestTraceSpansPerStrategy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := randDense(rng, 30, 8)
	y := randDense(rng, 30, 3)
	cases := []struct {
		strat Strategy
		spans []string
	}{
		{Primal, []string{"gram", "cholesky", "xty", "solve"}},
		{Dual, []string{"gram", "cholesky", "solve", "xty"}},
		{IterLSQR, []string{"lsqr"}},
	}
	for _, tc := range cases {
		tr := obs.NewTracerClock(16, nil)
		_, root := tr.StartRoot(context.Background(), "fit")
		if _, err := FitDense(x, y, Options{Alpha: 0.5, Strategy: tc.strat, Span: root}); err != nil {
			t.Fatal(err)
		}
		spans := tr.Snapshot()
		if len(spans) != len(tc.spans) {
			t.Fatalf("%v: got %d spans, want %d", tc.strat, len(spans), len(tc.spans))
		}
		for i, want := range tc.spans {
			if spans[i].Name != want || spans[i].Parent != root.SpanID() {
				t.Fatalf("%v: span %d = %q under %d, want %q under the root %d",
					tc.strat, i, spans[i].Name, spans[i].Parent, want, root.SpanID())
			}
		}
	}
}
