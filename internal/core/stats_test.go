package core

import (
	"math"
	"math/rand"
	"testing"

	"srda/internal/mat"
	"srda/internal/regress"
)

// absorbAll streams every row of x into fresh statistics in row order.
func absorbAll(t *testing.T, x *mat.Dense, labels []int, numClasses int) *SuffStats {
	t.Helper()
	s, err := NewSuffStats(x.Cols, numClasses)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows; i++ {
		if err := s.Absorb(x.RowView(i), labels[i]); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestFitStatsBitwiseMatchesBatch is the bridge's core contract: solving
// from sample-by-sample absorbed statistics is Float64bits-identical to
// the batch primal fit — W, B, and centroids — at every worker count.
func TestFitStatsBitwiseMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const m, n, c = 120, 30, 4
	x := mat.NewDense(m, n)
	labels := make([]int, m)
	for i := 0; i < m; i++ {
		labels[i] = i % c
		row := x.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64() + 0.5*float64(labels[i])
			if rng.Float64() < 0.3 {
				row[j] = 0 // exercise the exact-sparsity skip both sides share
			}
		}
	}
	s := absorbAll(t, x, labels, c)
	for _, w := range []int{1, 2, 4} {
		opt := Options{Alpha: 1, Workers: w}
		stream, err := FitStats(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := FitDense(x, labels, c, Options{Alpha: 1, Strategy: regress.Primal, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "W", stream.W.Data, batch.W.Data)
		bitsEqual(t, "B", stream.B, batch.B)
		if batch.Centroids == nil || stream.Centroids == nil {
			t.Fatal("primal fits must carry stats-based centroids")
		}
		bitsEqual(t, "Centroids", stream.Centroids.Data, batch.Centroids.Data)
	}
}

// TestIncrementalMatchesBatch: absorbing the samples one at a time and
// solving at a non-default alpha is bitwise identical to the batch
// primal fit on the same rows.
func TestIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const m, n, c = 70, 12, 3
	x, labels := gaussianBlobs(rng, m, n, c, 5)
	const alpha = 0.8
	got, err := FitStats(absorbAll(t, x, labels, c), Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	want, err := FitDense(x, labels, c, Options{Alpha: alpha, Strategy: regress.Primal})
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "W", got.W.Data, want.W.Data)
	bitsEqual(t, "B", got.B, want.B)
	if got.Alpha != alpha {
		t.Fatalf("model alpha %v, want %v", got.Alpha, alpha)
	}
}

// TestIncrementalOrderInvariant: the statistics are sums, so streaming
// the same samples in another order changes the model only by rounding.
func TestIncrementalOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const m, n, c = 40, 8, 4
	x, labels := gaussianBlobs(rng, m, n, c, 4)
	fit := func(order []int) *Model {
		s, err := NewSuffStats(n, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if err := s.Absorb(x.RowView(i), labels[i]); err != nil {
				t.Fatal(err)
			}
		}
		model, err := FitStats(s, Options{Alpha: 1})
		if err != nil {
			t.Fatal(err)
		}
		return model
	}
	fwd := make([]int, m)
	for i := range fwd {
		fwd[i] = i
	}
	want := fit(fwd)
	for _, order := range [][]int{rng.Perm(m), rng.Perm(m)} {
		got := fit(order)
		if d := mat.MaxAbsDiff(got.W, want.W); d > 1e-10 {
			t.Fatalf("order changes W by %v", d)
		}
		for j := range got.B {
			if d := math.Abs(got.B[j] - want.B[j]); d > 1e-10 {
				t.Fatalf("order changes B[%d] by %v", j, d)
			}
		}
	}
}

// TestIncrementalStreamingRefits: FitStats leaves the statistics
// reusable, and a refit after every 10th sample is bitwise identical to
// the batch primal fit on that prefix.
func TestIncrementalStreamingRefits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m, n, c = 36, 6, 3
	x, labels := gaussianBlobs(rng, m, n, c, 5)
	s, err := NewSuffStats(n, c)
	if err != nil {
		t.Fatal(err)
	}
	refits := 0
	for i := 0; i < m; i++ {
		if err := s.Absorb(x.RowView(i), labels[i]); err != nil {
			t.Fatal(err)
		}
		if s.Seen() != i+1 {
			t.Fatalf("Seen %d after %d absorptions", s.Seen(), i+1)
		}
		ready := true
		for _, cnt := range s.ClassCounts() {
			ready = ready && cnt > 0
		}
		if !ready || (i+1)%10 != 0 {
			continue
		}
		got, err := FitStats(s, Options{Alpha: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		prefix := x.Slice(0, i+1, 0, n).Clone()
		want, err := FitDense(prefix, labels[:i+1], c, Options{Alpha: 1, Strategy: regress.Primal, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "W", got.W.Data, want.W.Data)
		bitsEqual(t, "B", got.B, want.B)
		bitsEqual(t, "Centroids", got.Centroids.Data, want.Centroids.Data)
		refits++
	}
	if refits != 3 {
		t.Fatalf("%d prefix refits, want 3", refits)
	}
}

// TestSuffStatsValidation pins the error paths.
func TestSuffStatsValidation(t *testing.T) {
	if _, err := NewSuffStats(0, 2); err == nil {
		t.Fatal("0 features accepted")
	}
	if _, err := NewSuffStats(3, 1); err == nil {
		t.Fatal("1 class accepted")
	}
	s, err := NewSuffStats(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Absorb([]float64{1, 2}, 0); err == nil {
		t.Fatal("short sample accepted")
	}
	if err := s.Absorb([]float64{1, 2, 3}, 2); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if err := s.Absorb([]float64{1, 2, 3}, -1); err == nil {
		t.Fatal("negative label accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.Absorb([]float64{1, bad, 3}, 0); err == nil {
			t.Fatalf("sample with %v accepted", bad)
		}
		if err := s.Check([]float64{1, 2, bad}, 1); err == nil {
			t.Fatalf("Check passed a sample with %v", bad)
		}
	}
	if err := s.Check([]float64{1, 2, 3}, 1); err != nil {
		t.Fatalf("Check refused a good sample: %v", err)
	}
	if s.Seen() != 0 {
		t.Fatalf("failed absorptions counted: %d", s.Seen())
	}
	if err := s.Absorb([]float64{1, 0, 0}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Absorb([]float64{0, 1, 0}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := FitStats(s, Options{Alpha: 1}); err != nil {
		t.Fatalf("rejected samples left the statistics unusable: %v", err)
	}
}

// TestIncrementalModelBeforeAllClasses: FitStats refuses statistics in
// which some class has no sample yet, and accepts them once every class
// has one.
func TestIncrementalModelBeforeAllClasses(t *testing.T) {
	s, err := NewSuffStats(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FitStats(s, Options{Alpha: 1}); err == nil {
		t.Fatal("empty model accepted")
	}
	if err := s.Absorb([]float64{1, 0, 0, 0}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := FitStats(s, Options{Alpha: 1}); err == nil {
		t.Fatal("model with missing classes accepted")
	}
	if err := s.Absorb([]float64{0, 1, 0, 0}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := FitStats(s, Options{Alpha: 1}); err == nil {
		t.Fatal("model with one class still missing accepted")
	}
	if err := s.Absorb([]float64{0, 0, 1, 0}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := FitStats(s, Options{Alpha: 1}); err != nil {
		t.Fatalf("model with every class present rejected: %v", err)
	}
}

// TestIncrementalValidation pins the constructor, sample-shape and
// penalty checks of the streaming trainer.
func TestIncrementalValidation(t *testing.T) {
	if _, err := NewSuffStats(0, 3); err == nil {
		t.Fatal("0 features accepted")
	}
	if _, err := NewSuffStats(4, 1); err == nil {
		t.Fatal("1 class accepted")
	}
	s, err := NewSuffStats(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Absorb([]float64{1, 2}, 0); err == nil {
		t.Fatal("wrong dimensionality accepted")
	}
	if err := s.Absorb([]float64{1, 2, 3, 4}, 9); err == nil {
		t.Fatal("bad label accepted")
	}
	if err := s.Absorb([]float64{1, 2, 3, 4}, -1); err == nil {
		t.Fatal("negative label accepted")
	}
	for k := 0; k < 3; k++ {
		if err := s.Absorb([]float64{float64(k), 1, 0, 0}, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := FitStats(s, Options{Alpha: -1}); err == nil {
		t.Fatal("negative alpha accepted")
	}
}
