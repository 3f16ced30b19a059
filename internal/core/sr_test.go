package core

import (
	"math"
	"math/rand"
	"testing"

	"srda/internal/graph"
	"srda/internal/mat"
	"srda/internal/regress"
	"srda/internal/solver"
)

func TestSRWithClassGraphMatchesSRDAGeometry(t *testing.T) {
	// With the supervised class graph and Dim = c−1, generalized SR must
	// span the same subspace as SRDA: embeddings agree up to an orthogonal
	// transform, so pairwise distances match.
	rng := rand.New(rand.NewSource(1))
	x, labels := gaussianBlobs(rng, 90, 12, 3, 6)
	g, err := graph.ClassGraph(labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := FitSRDense(x, g, SROptions{Dim: 2, Alpha: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srda, err := FitDense(x, labels, 3, Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := sr.TransformDense(x), srda.TransformDense(x)
	if e1.Cols != 2 || e2.Cols != 2 {
		t.Fatalf("dims %d / %d", e1.Cols, e2.Cols)
	}
	for trial := 0; trial < 40; trial++ {
		i, p := rng.Intn(x.Rows), rng.Intn(x.Rows)
		d1 := rowDist(e1, i, p)
		d2 := rowDist(e2, i, p)
		if math.Abs(d1-d2) > 1e-4*(1+d1) {
			t.Fatalf("distance mismatch (%d,%d): %v vs %v", i, p, d1, d2)
		}
	}
}

// TestFitSRCarriesWorkersAndStats: both SR entry points return a model
// that projects at the fit's Workers and carries the solver telemetry.
func TestFitSRCarriesWorkersAndStats(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, labels := gaussianBlobs(rng, 60, 10, 3, 6)
	g, err := graph.ClassGraph(labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := SROptions{Dim: 2, Alpha: 0.5, Seed: 3, Workers: 1}
	dense, err := FitSRDense(x, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	op, err := FitSROperator(solver.DenseOp{A: x}, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Model{"FitSRDense": dense, "FitSROperator": op} {
		if m.Workers != opt.Workers {
			t.Errorf("%s: model Workers %d, fit %d", name, m.Workers, opt.Workers)
		}
		if m.Stats.Strategy == regress.Auto || m.Stats.Strategy != m.Strategy {
			t.Errorf("%s: Stats.Strategy %v, model Strategy %v", name, m.Stats.Strategy, m.Strategy)
		}
	}
}

func rowDist(e *mat.Dense, i, p int) float64 {
	var d float64
	for j := 0; j < e.Cols; j++ {
		diff := e.At(i, j) - e.At(p, j)
		d += diff * diff
	}
	return math.Sqrt(d)
}

func TestSRUnsupervisedKNNSeparatesBlobs(t *testing.T) {
	// On well-separated blobs, the unsupervised spectral embedding (k-NN
	// graph, no labels at all) must still land same-cluster points close
	// together: within-cluster distances well below cross-cluster ones.
	rng := rand.New(rand.NewSource(2))
	x, labels := gaussianBlobs(rng, 90, 8, 3, 12)
	g := graph.KNN(x, graph.KNNOptions{K: 6})
	model, err := FitSRDense(x, g, SROptions{Dim: 2, Alpha: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	emb := model.TransformDense(x)
	var within, cross float64
	var nw, nc int
	for i := 0; i < x.Rows; i++ {
		for p := 0; p < i; p++ {
			d := rowDist(emb, i, p)
			if labels[i] == labels[p] {
				within += d
				nw++
			} else {
				cross += d
				nc++
			}
		}
	}
	if within/float64(nw) >= 0.5*cross/float64(nc) {
		t.Fatalf("unsupervised SR did not separate clusters: within %.4f vs cross %.4f",
			within/float64(nw), cross/float64(nc))
	}
}

func TestSRSemiSupervisedRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, labels := gaussianBlobs(rng, 80, 10, 4, 8)
	partial := append([]int(nil), labels...)
	for i := range partial {
		if i%2 == 1 {
			partial[i] = -1
		}
	}
	g, err := graph.SemiSupervised(x, partial, 4, 1, graph.KNNOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	model, err := FitSRDense(x, g, SROptions{Dim: 3, Alpha: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	emb := model.TransformDense(x)
	// labeled samples must classify correctly by nearest centroid using
	// only the labeled half
	var labIdx []int
	for i, y := range partial {
		if y >= 0 {
			labIdx = append(labIdx, i)
		}
	}
	errs := 0
	for _, i := range labIdx {
		best, bestD := -1, math.Inf(1)
		for k := 0; k < 4; k++ {
			// centroid of labeled class k
			cnt := 0.0
			cent := make([]float64, emb.Cols)
			for _, p := range labIdx {
				if partial[p] == k {
					cnt++
					for j := range cent {
						cent[j] += emb.At(p, j)
					}
				}
			}
			var d float64
			for j := range cent {
				diff := emb.At(i, j) - cent[j]/cnt
				d += diff * diff
			}
			if d < bestD {
				best, bestD = k, d
			}
		}
		if best != labels[i] {
			errs++
		}
	}
	if frac := float64(errs) / float64(len(labIdx)); frac > 0.1 {
		t.Fatalf("semi-supervised SR training error %.2f", frac)
	}
}

func TestSRValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, labels := gaussianBlobs(rng, 30, 5, 3, 5)
	g, err := graph.ClassGraph(labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FitSRDense(x, g, SROptions{Dim: 0}); err == nil {
		t.Fatal("Dim 0 accepted")
	}
	if _, err := FitSRDense(x, g, SROptions{Dim: 40}); err == nil {
		t.Fatal("oversized Dim accepted")
	}
	small := mat.NewDense(10, 5)
	if _, err := FitSRDense(small, g, SROptions{Dim: 2}); err == nil {
		t.Fatal("graph/data size mismatch accepted")
	}
}
