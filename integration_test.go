package srda_test

// Integration tests: cross-module pipelines exercised end to end through
// the public API, the scenarios a downstream user actually composes.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"srda"
)

// TestIntegrationPCAThenSRDA chains the two-stage pipeline manually: PCA
// compression followed by SRDA in the reduced space must classify
// comparably to SRDA on the raw features while fitting faster models.
func TestIntegrationPCAThenSRDA(t *testing.T) {
	ds := srda.PIELike(srda.PIEConfig{Classes: 8, PerClass: 30, Side: 16, Seed: 301})
	rng := rand.New(rand.NewSource(301))
	train, test, err := ds.SplitPerClass(rng, 12)
	if err != nil {
		t.Fatal(err)
	}

	direct, err := srda.Fit(train.Dense, train.Labels, train.NumClasses,
		srda.Options{Alpha: 1, Whiten: true})
	if err != nil {
		t.Fatal(err)
	}
	directErr := srda.ErrorRate(direct.PredictDense(test.Dense), test.Labels)

	pca, err := srda.FitPCA(train.Dense, 40)
	if err != nil {
		t.Fatal(err)
	}
	zTrain := pca.Transform(train.Dense)
	reduced, err := srda.Fit(zTrain, train.Labels, train.NumClasses,
		srda.Options{Alpha: 1, Whiten: true})
	if err != nil {
		t.Fatal(err)
	}
	reducedErr := srda.ErrorRate(reduced.PredictDense(pca.Transform(test.Dense)), test.Labels)

	if reducedErr > directErr+0.1 {
		t.Fatalf("PCA+SRDA %.3f much worse than direct SRDA %.3f", reducedErr, directErr)
	}
	if pca.ExplainedRatio() <= 0 || pca.ExplainedRatio() > 1 {
		t.Fatalf("explained ratio %v", pca.ExplainedRatio())
	}
}

// TestIntegrationTextToModelFile walks the full text pathway: raw strings
// → vectorizer → sparse SRDA → serialized model+vectorizer → reload →
// classify new text.
func TestIntegrationTextToModelFile(t *testing.T) {
	docs := []string{
		"compilers optimize loops and registers", "the linker resolves symbols in objects",
		"kernels schedule threads and processes", "debuggers inspect stack frames",
		"the striker scored twice in the final", "the goalkeeper saved a penalty kick",
		"fans celebrated the championship win", "the coach rotated the defensive line",
	}
	labels := []int{0, 0, 0, 0, 1, 1, 1, 1}
	vec, ds, err := srda.NewTextVectorizer(docs, labels, 2,
		srda.TextVectorizerOptions{Stem: true, TFIDF: true})
	if err != nil {
		t.Fatal(err)
	}
	model, err := srda.FitCSR(ds.Sparse, ds.Labels, 2,
		srda.Options{Alpha: 0.1, LSQRIter: 100, Whiten: true})
	if err != nil {
		t.Fatal(err)
	}

	var modelBuf, vecBuf bytes.Buffer
	if err := model.Save(&modelBuf); err != nil {
		t.Fatal(err)
	}
	if err := vec.Save(&vecBuf); err != nil {
		t.Fatal(err)
	}
	loadedModel, err := srda.LoadModel(&modelBuf)
	if err != nil {
		t.Fatal(err)
	}
	loadedVec, err := srda.LoadTextVectorizer(&vecBuf)
	if err != nil {
		t.Fatal(err)
	}

	unseen := []string{
		"the compiler emits optimized object code",
		"a dramatic goal won the match",
	}
	pred := loadedModel.PredictSparse(loadedVec.Transform(unseen))
	if pred[0] != 0 || pred[1] != 1 {
		t.Fatalf("predictions %v, want [0 1]", pred)
	}
}

// TestIntegrationStreamingMatchesDiskMatchesBatch ties three training
// modes together: batch, streaming, and out-of-core must agree on the
// same data (batch≡streaming bitwise; disk≡in-memory-LSQR exactly).
func TestIntegrationStreamingMatchesDiskMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	m, n, c := 80, 15, 3
	x := srda.NewDense(m, n)
	labels := make([]int, m)
	for i := 0; i < m; i++ {
		labels[i] = i % c
		row := x.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		row[0] += 5 * float64(labels[i])
	}

	batch, err := srda.Fit(x, labels, c, srda.Options{Alpha: 1, Solver: srda.SolverPrimal})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := srda.NewSuffStats(n, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		if err := stats.Absorb(x.RowView(i), labels[i]); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := srda.FitStats(stats, srda.Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range streamed.W.Data {
		if math.Float64bits(v) != math.Float64bits(batch.W.Data[i]) {
			t.Fatalf("streamed W[%d] = %v diverged from batch %v", i, v, batch.W.Data[i])
		}
	}

	// out-of-core vs in-memory LSQR on a sparse version of the same data
	b := srda.NewCSRBuilder(m, n)
	for i := 0; i < m; i++ {
		row := x.RowView(i)
		for j, v := range row {
			b.Add(i, j, v)
		}
	}
	cs := b.Build()
	path := t.TempDir() + "/x.csr"
	if err := cs.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	d, err := srda.OpenDiskCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	opt := srda.Options{Alpha: 1, LSQRIter: 50}
	ooc, err := srda.FitDiskCSR(d, labels, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := srda.FitCSR(cs, labels, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < c-1; j++ {
			if ooc.W.At(i, j) != mem.W.At(i, j) {
				t.Fatal("out-of-core diverged from in-memory")
			}
		}
	}
}

// TestIntegrationGraphFamilyConsistency runs the three graph regimes on
// one dataset: supervised SR ≈ SRDA; semi-supervised with all labels
// revealed ≈ supervised; unsupervised clusters align with classes.
func TestIntegrationGraphFamilyConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	m, n, c := 120, 12, 3
	x := srda.NewDense(m, n)
	labels := make([]int, m)
	for i := 0; i < m; i++ {
		labels[i] = i % c
		row := x.RowView(i)
		for j := range row {
			row[j] = 0.4 * rng.NormFloat64()
		}
		row[0] += 6 * float64(labels[i])
		row[1] += 3 * float64((labels[i]*2)%c)
	}

	// supervised SR ≡ SRDA geometry (pairwise distances)
	g, err := srda.ClassGraph(labels, c)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := srda.FitSR(x, g, srda.SROptions{Dim: c - 1, Alpha: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := srda.Fit(x, labels, c, srda.Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := sr.TransformDense(x), plain.TransformDense(x)
	for trial := 0; trial < 30; trial++ {
		a, bIdx := rng.Intn(m), rng.Intn(m)
		d1 := rowDistance(e1, a, bIdx)
		d2 := rowDistance(e2, a, bIdx)
		if math.Abs(d1-d2) > 1e-4*(1+d1) {
			t.Fatalf("SR/SRDA geometry mismatch: %v vs %v", d1, d2)
		}
	}

	// unsupervised spectral clustering recovers the classes
	knn := srda.KNNGraph(x, srda.KNNGraphOptions{K: 6})
	sc, err := srda.SpectralCluster(knn, c, srda.SpectralClusterOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	votes := map[[2]int]int{}
	for i := range sc.Assign {
		votes[[2]int{sc.Assign[i], labels[i]}]++
	}
	correct := 0
	for k := 0; k < c; k++ {
		best := 0
		for y := 0; y < c; y++ {
			if v := votes[[2]int{k, y}]; v > best {
				best = v
			}
		}
		correct += best
	}
	if frac := float64(correct) / float64(m); frac < 0.95 {
		t.Fatalf("unsupervised clustering agreement %.2f", frac)
	}
}

// TestIntegrationCVPicksSensibleAlphaUnderNoise couples label corruption
// with cross-validation: with noisy labels, CV should not pick the
// weakest regularizer.
func TestIntegrationCVPicksSensibleAlphaUnderNoise(t *testing.T) {
	ds := srda.PIELike(srda.PIEConfig{Classes: 6, PerClass: 24, Side: 12, Seed: 305})
	noisy, _ := srda.CorruptLabels(ds, rand.New(rand.NewSource(305)), 0.25)
	alphas := []float64{1e-6, 1, 100}
	results, best, err := srda.KFoldAlpha(noisy, alphas, 3, 305)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	if best == 0 {
		t.Fatalf("CV picked α=1e-6 under 25%% label noise (errors: %.1f / %.1f / %.1f)",
			results[0].MeanErr, results[1].MeanErr, results[2].MeanErr)
	}
}

func rowDistance(e *srda.Dense, i, p int) float64 {
	var d float64
	for j := 0; j < e.Cols; j++ {
		diff := e.At(i, j) - e.At(p, j)
		d += diff * diff
	}
	return math.Sqrt(d)
}
