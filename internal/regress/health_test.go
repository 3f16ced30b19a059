package regress

import (
	"math/rand"
	"testing"

	"srda/internal/mat"
)

func randomProblem(seed int64, m, n, k int) (*mat.Dense, *mat.Dense) {
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(m, n)
	y := mat.NewDense(m, k)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		for j := 0; j < k; j++ {
			y.Set(i, j, rng.NormFloat64())
		}
	}
	return x, y
}

// TestFitStampsCondEstimate: both direct paths surface the Cholesky
// conditioning; the LSQR path (no Gram matrix) leaves it zero.
func TestFitStampsCondEstimate(t *testing.T) {
	x, y := randomProblem(1, 40, 8, 2)
	for _, strat := range []Strategy{Primal, Dual} {
		m, err := FitDense(x, y, Options{Alpha: 0.5, Strategy: strat, Intercept: true})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if m.Stats.CondEstimate < 1 {
			t.Errorf("%v: CondEstimate = %v, want >= 1", strat, m.Stats.CondEstimate)
		}
	}
	m, err := FitDense(x, y, Options{Alpha: 0.5, Strategy: IterLSQR, LSQRIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.CondEstimate != 0 {
		t.Errorf("LSQR path stamped CondEstimate %v", m.Stats.CondEstimate)
	}
}
