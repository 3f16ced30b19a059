// Benchmarks regenerating the paper's tables and figures at laptop scale.
//
// Every table and figure of the evaluation section has one Benchmark*
// function; each trains the compared algorithms on a scaled-down version
// of the corresponding dataset and reports the headline quantities as
// custom metrics (err%/ * are mean test-error percentages, sec/* are mean
// training seconds).  Run:
//
//	go test -bench=. -benchmem
//
// The full-size reproduction (the paper's exact m, n, c) lives in
// cmd/srdabench (-scale paper); these benches are its fast proxy, so the
// relative ordering — SRDA ≈ RLDA accuracy, SRDA ≫ LDA speed, IDR/QR
// fastest but least accurate, memory wall on sparse data — is the thing
// to look at, not absolute numbers.
package srda_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"srda"
)

// benchDatasets are generated once and shared across benchmarks.
var benchDatasets struct {
	once                     sync.Once
	pie, isolet, mnist, news *srda.Dataset
}

func datasets() (pie, isolet, mnist, news *srda.Dataset) {
	benchDatasets.once.Do(func() {
		benchDatasets.pie = srda.PIELike(srda.PIEConfig{Classes: 16, PerClass: 30, Side: 16, Seed: 101})
		benchDatasets.isolet = srda.IsoletLike(srda.IsoletConfig{Classes: 12, PerClass: 40, Dim: 160, Seed: 102})
		benchDatasets.mnist = srda.MNISTLike(srda.MNISTConfig{Classes: 10, PerClass: 60, Side: 16, Seed: 103})
		benchDatasets.news = srda.NewsLike(srda.NewsConfig{Classes: 8, Docs: 1200, Vocab: 4000, AvgLen: 60, TopicWords: 400, TopicBoost: 10, Seed: 104})
	})
	return benchDatasets.pie, benchDatasets.isolet, benchDatasets.mnist, benchDatasets.news
}

// runGridBench runs one (dataset, sizes-or-fracs) grid per iteration and
// reports per-algorithm error and time metrics from the last run.
func runGridBench(b *testing.B, ds *srda.Dataset, perClass int, frac float64) {
	b.Helper()
	r := srda.Runner{Splits: 2, Seed: 7, Alpha: 1, LSQRIter: 15}
	var g *srda.Grid
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if perClass > 0 {
			g, err = r.RunPerClassGrid(ds, srda.AllAlgorithms, []int{perClass})
		} else {
			g, err = r.RunFractionGrid(ds, srda.AllAlgorithms, []float64{frac})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for j, a := range g.Algorithms {
		c := g.Cells[0][j]
		if !c.Feasible {
			continue
		}
		b.ReportMetric(c.MeanErr, "err%/"+string(a))
		b.ReportMetric(c.MeanTime, "sec/"+string(a))
	}
}

// BenchmarkTable1Model evaluates the flam/memory complexity model (Table I).
func BenchmarkTable1Model(b *testing.B) {
	p := srda.ComplexityProblem{M: 9470, N: 26214, C: 20, K: 15, S: 80}
	var speed float64
	for i := 0; i < b.N; i++ {
		rows := srda.ComplexityTable(p)
		speed = rows[0].Flam / rows[1].Flam
	}
	b.ReportMetric(speed, "lda/srda-flam")
}

// BenchmarkTable2Stats generates and summarizes a dataset (Table II).
func BenchmarkTable2Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := srda.NewsLike(srda.NewsConfig{Classes: 4, Docs: 400, Vocab: 2000, AvgLen: 40, Seed: int64(i)})
		s := ds.Describe()
		if s.Classes != 4 {
			b.Fatal("bad stats")
		}
	}
}

// BenchmarkTable3PIEError reproduces the PIE error comparison (Table III /
// Fig 1 left).
func BenchmarkTable3PIEError(b *testing.B) {
	pie, _, _, _ := datasets()
	runGridBench(b, pie, 8, 0)
}

// BenchmarkTable4PIETime reproduces the PIE training-time comparison
// (Table IV / Fig 1 right) at a larger training size where the gap shows.
func BenchmarkTable4PIETime(b *testing.B) {
	pie, _, _, _ := datasets()
	runGridBench(b, pie, 16, 0)
}

// BenchmarkTable5IsoletError reproduces Table V / Fig 2 left.
func BenchmarkTable5IsoletError(b *testing.B) {
	_, iso, _, _ := datasets()
	runGridBench(b, iso, 10, 0)
}

// BenchmarkTable6IsoletTime reproduces Table VI / Fig 2 right.
func BenchmarkTable6IsoletTime(b *testing.B) {
	_, iso, _, _ := datasets()
	runGridBench(b, iso, 25, 0)
}

// BenchmarkTable7MNISTError reproduces Table VII / Fig 3 left.
func BenchmarkTable7MNISTError(b *testing.B) {
	_, _, mnist, _ := datasets()
	runGridBench(b, mnist, 15, 0)
}

// BenchmarkTable8MNISTTime reproduces Table VIII / Fig 3 right.
func BenchmarkTable8MNISTTime(b *testing.B) {
	_, _, mnist, _ := datasets()
	runGridBench(b, mnist, 40, 0)
}

// BenchmarkTable9NewsError reproduces Table IX / Fig 4 left (sparse text;
// SRDA runs the LSQR path).
func BenchmarkTable9NewsError(b *testing.B) {
	_, _, _, news := datasets()
	runGridBench(b, news, 0, 0.1)
}

// BenchmarkTable10NewsTime reproduces Table X / Fig 4 right.
func BenchmarkTable10NewsTime(b *testing.B) {
	_, _, _, news := datasets()
	runGridBench(b, news, 0, 0.3)
}

// figureBench renders the ASCII figure from a two-point grid (the figures
// are the tables' curves; this regenerates the plotting path end-to-end).
func figureBench(b *testing.B, ds *srda.Dataset, sizes []int, fracs []float64) {
	b.Helper()
	r := srda.Runner{Splits: 2, Seed: 8, Alpha: 1, LSQRIter: 15}
	for i := 0; i < b.N; i++ {
		var g *srda.Grid
		var err error
		if sizes != nil {
			g, err = r.RunPerClassGrid(ds, []srda.Algorithm{srda.AlgoSRDA, srda.AlgoIDRQR}, sizes)
		} else {
			g, err = r.RunFractionGrid(ds, []srda.Algorithm{srda.AlgoSRDA, srda.AlgoIDRQR}, fracs)
		}
		if err != nil {
			b.Fatal(err)
		}
		if out := g.RenderFigure(false) + g.RenderFigure(true); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig1PIE regenerates both panels of Figure 1.
func BenchmarkFig1PIE(b *testing.B) {
	pie, _, _, _ := datasets()
	figureBench(b, pie, []int{4, 10}, nil)
}

// BenchmarkFig2Isolet regenerates both panels of Figure 2.
func BenchmarkFig2Isolet(b *testing.B) {
	_, iso, _, _ := datasets()
	figureBench(b, iso, []int{6, 14}, nil)
}

// BenchmarkFig3MNIST regenerates both panels of Figure 3.
func BenchmarkFig3MNIST(b *testing.B) {
	_, _, mnist, _ := datasets()
	figureBench(b, mnist, []int{10, 25}, nil)
}

// BenchmarkFig4News regenerates both panels of Figure 4.
func BenchmarkFig4News(b *testing.B) {
	_, _, _, news := datasets()
	figureBench(b, news, nil, []float64{0.05, 0.15})
}

// BenchmarkFig5AlphaSweep regenerates one Figure 5 panel (error vs
// α/(1+α) with LDA and IDR/QR references).
func BenchmarkFig5AlphaSweep(b *testing.B) {
	pie, _, _, _ := datasets()
	r := srda.Runner{Splits: 2, Seed: 9}
	var sweep *srda.Sweep
	var err error
	for i := 0; i < b.N; i++ {
		sweep, err = r.AlphaSweep(pie, 6, 0, []float64{0.1, 0.5, 0.9})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(sweep.Points[1].MeanErr, "err%/srda-mid")
	b.ReportMetric(sweep.IDRQRErr, "err%/idrqr")
}

// --- Ablations -----------------------------------------------------------

func ablationFit(b *testing.B, solver srda.Solver) {
	b.Helper()
	pie, _, _, _ := datasets()
	rng := rand.New(rand.NewSource(10))
	train, _, err := pie.SplitPerClass(rng, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srda.Fit(train.Dense, train.Labels, train.NumClasses,
			srda.Options{Alpha: 1, Solver: solver, LSQRIter: 30}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSolverPrimal times the eq. 20 closed-form path.
func BenchmarkAblationSolverPrimal(b *testing.B) { ablationFit(b, srda.SolverPrimal) }

// BenchmarkAblationSolverDual times the eq. 21 dual path.
func BenchmarkAblationSolverDual(b *testing.B) { ablationFit(b, srda.SolverDual) }

// BenchmarkAblationSolverLSQR times the iterative path on dense data.
func BenchmarkAblationSolverLSQR(b *testing.B) { ablationFit(b, srda.SolverLSQR) }

// BenchmarkAblationLSQRIters measures error sensitivity to the iteration
// cap (the paper's "15–20 iterations suffice").
func BenchmarkAblationLSQRIters(b *testing.B) {
	_, _, _, news := datasets()
	rng := rand.New(rand.NewSource(11))
	train, test, err := news.SplitFraction(rng, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	errAt := map[int]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range []int{5, 15} {
			model, err := srda.FitCSR(train.Sparse, train.Labels, train.NumClasses,
				srda.Options{Alpha: 1, LSQRIter: k, Whiten: true})
			if err != nil {
				b.Fatal(err)
			}
			pred := model.PredictSparse(test.Sparse)
			errAt[k] = 100 * srda.ErrorRate(pred, test.Labels)
		}
	}
	b.StopTimer()
	b.ReportMetric(errAt[5], "err%/k=5")
	b.ReportMetric(errAt[15], "err%/k=15")
}

// --- Micro-benchmarks on the core pipeline -------------------------------

// BenchmarkSRDAFitDense times a single dense fit at the PIE shape.
func BenchmarkSRDAFitDense(b *testing.B) {
	pie, _, _, _ := datasets()
	rng := rand.New(rand.NewSource(12))
	train, _, err := pie.SplitPerClass(rng, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srda.Fit(train.Dense, train.Labels, train.NumClasses, srda.Options{Alpha: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSRDAFitSparse times the LSQR path at the news shape — the
// paper's linear-time claim in microcosm.
func BenchmarkSRDAFitSparse(b *testing.B) {
	_, _, _, news := datasets()
	rng := rand.New(rand.NewSource(13))
	train, _, err := news.SplitFraction(rng, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srda.FitCSR(train.Sparse, train.Labels, train.NumClasses,
			srda.Options{Alpha: 1, LSQRIter: 15}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLDAFit times the classical baseline on the same data as
// BenchmarkSRDAFitDense for a direct speedup readout.
func BenchmarkLDAFit(b *testing.B) {
	pie, _, _, _ := datasets()
	rng := rand.New(rand.NewSource(12))
	train, _, err := pie.SplitPerClass(rng, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srda.FitLDA(train.Dense, train.Labels, train.NumClasses, srda.LDAOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIDRQRFit times the fastest baseline on the same data.
func BenchmarkIDRQRFit(b *testing.B) {
	pie, _, _, _ := datasets()
	rng := rand.New(rand.NewSource(12))
	train, _, err := pie.SplitPerClass(rng, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srda.FitIDRQR(train.Dense, train.Labels, train.NumClasses, srda.IDRQROptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// predictBenchSetup trains a model at a serving-realistic shape (wide
// features, few classes) and cuts a 64-sample batch, the micro-batcher's
// default MaxBatch.
func predictBenchSetup(b *testing.B) (*srda.Model, *srda.Dense) {
	b.Helper()
	rng := rand.New(rand.NewSource(77))
	const m, n, c, batch = 300, 2000, 10, 64
	x := srda.NewDense(m+batch, n)
	labels := make([]int, m+batch)
	for i := 0; i < m+batch; i++ {
		labels[i] = i % c
		row := x.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		row[0] += 7 * float64(labels[i])
	}
	train := x.Slice(0, m, 0, n)
	model, err := srda.Fit(train.Clone(), labels[:m], c, srda.Options{Alpha: 1, Solver: srda.SolverDual})
	if err != nil {
		b.Fatal(err)
	}
	return model, x.Slice(m, m+batch, 0, n).Clone()
}

// BenchmarkPredictLoop classifies a 64-sample batch one row at a time —
// the per-request cost a server pays without micro-batching (one GemvT
// over W plus a centroid-distance loop per sample).
func BenchmarkPredictLoop(b *testing.B) {
	model, batch := predictBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < batch.Rows; r++ {
			model.PredictVec(batch.RowView(r))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(batch.Rows)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkPredictBatch classifies the same 64 samples through the
// GEMM-lowered batch path srdaserve's dispatcher uses; the ratio to
// BenchmarkPredictLoop is the micro-batching win recorded in the perf
// trajectory.
func BenchmarkPredictBatch(b *testing.B) {
	model, batch := predictBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.PredictBatch(batch)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(batch.Rows)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkTransformSparse times embedding throughput on CSR rows.
func BenchmarkTransformSparse(b *testing.B) {
	_, _, _, news := datasets()
	model, err := srda.FitCSR(news.Sparse, news.Labels, news.NumClasses,
		srda.Options{Alpha: 1, LSQRIter: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		model.TransformSparse(news.Sparse)
	}
	b.StopTimer()
	rowsPerSec := float64(b.N) * float64(news.NumSamples()) / time.Since(start).Seconds()
	b.ReportMetric(rowsPerSec, "rows/s")
}

// --- Extension benchmarks -------------------------------------------------

// BenchmarkSuffStatsAbsorb measures the O(n²) per-sample streaming update.
func BenchmarkSuffStatsAbsorb(b *testing.B) {
	pie, _, _, _ := datasets()
	stats, err := srda.NewSuffStats(pie.NumFeatures(), pie.NumClasses)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := pie.Dense.RowView(i % pie.NumSamples())
		if err := stats.Absorb(row, pie.Labels[i%pie.NumSamples()]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKSRDAFit times kernel SRDA on a small dense problem (O(m²)
// kernel work dominates).
func BenchmarkKSRDAFit(b *testing.B) {
	rng := rand.New(rand.NewSource(200))
	m, n := 200, 30
	x := srda.NewDense(m, n)
	labels := make([]int, m)
	for i := 0; i < m; i++ {
		labels[i] = i % 4
		row := x.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		row[0] += 4 * float64(labels[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srda.FitKSRDA(x, labels, 4, srda.KSRDAOptions{Alpha: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpectralRegressionKNN times the generalized SR pipeline
// (k-NN graph eigenvectors via deflated Lanczos + ridge).
func BenchmarkSpectralRegressionKNN(b *testing.B) {
	rng := rand.New(rand.NewSource(201))
	m, n := 300, 20
	x := srda.NewDense(m, n)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < m; i++ {
		x.RowView(i)[0] += 8 * float64(i%3)
	}
	g := srda.KNNGraph(x, srda.KNNGraphOptions{K: 6})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srda.FitSR(x, g, srda.SROptions{Dim: 2, Alpha: 0.5, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpectralClustering times normalized cuts end to end.
func BenchmarkSpectralClustering(b *testing.B) {
	rng := rand.New(rand.NewSource(202))
	m := 400
	x := srda.NewDense(m, 2)
	for i := 0; i < m; i++ {
		x.Set(i, 0, 5*float64(i%3)+0.4*rng.NormFloat64())
		x.Set(i, 1, 0.4*rng.NormFloat64())
	}
	g := srda.KNNGraph(x, srda.KNNGraphOptions{K: 7})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srda.SpectralCluster(g, 3, srda.SpectralClusterOptions{Seed: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTextVectorize times the raw-text → TF-IDF pipeline.
func BenchmarkTextVectorize(b *testing.B) {
	docs := make([]string, 200)
	labels := make([]int, 200)
	words := []string{"compiler", "linker", "kernel", "goal", "match", "striker",
		"galaxy", "orbit", "telescope", "running", "jumped", "quickly", "analysis"}
	rng := rand.New(rand.NewSource(203))
	for i := range docs {
		labels[i] = i % 4
		var sb []byte
		for w := 0; w < 40; w++ {
			sb = append(sb, words[rng.Intn(len(words))]...)
			sb = append(sb, ' ')
		}
		docs[i] = string(sb)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := srda.NewTextVectorizer(docs, labels, 4,
			srda.TextVectorizerOptions{Stem: true, TFIDF: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOutOfCoreMatVec compares streaming against in-memory products.
func BenchmarkOutOfCoreMatVec(b *testing.B) {
	_, _, _, news := datasets()
	dir := b.TempDir()
	path := dir + "/m.csr"
	if err := news.Sparse.WriteFile(path); err != nil {
		b.Fatal(err)
	}
	d, err := srda.OpenDiskCSR(path)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	x := make([]float64, news.NumFeatures())
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.MulVec(x, nil); err != nil {
			b.Fatal(err)
		}
	}
}
