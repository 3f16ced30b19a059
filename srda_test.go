package srda_test

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"srda"
)

// blobs builds an easy classification problem through the public API.
func blobs(rng *rand.Rand, m, n, c int, sep float64) (*srda.Dense, []int) {
	x := srda.NewDense(m, n)
	labels := make([]int, m)
	for i := 0; i < m; i++ {
		labels[i] = i % c
		row := x.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		row[0] += sep * float64(labels[i])
	}
	return x, labels
}

func TestPublicFitTransformClassify(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xTrain, yTrain := blobs(rng, 120, 15, 3, 7)
	xTest, yTest := blobs(rng, 60, 15, 3, 7)

	model, err := srda.Fit(xTrain, yTrain, 3, srda.Options{Alpha: 1, Whiten: true})
	if err != nil {
		t.Fatal(err)
	}
	if model.Dim() != 2 {
		t.Fatalf("Dim=%d", model.Dim())
	}
	nc, err := srda.FitNearestCentroid(model.TransformDense(xTrain), yTrain, 3)
	if err != nil {
		t.Fatal(err)
	}
	pred := nc.Predict(model.TransformDense(xTest))
	if errRate := srda.ErrorRate(pred, yTest); errRate > 0.05 {
		t.Fatalf("test error %.3f too high", errRate)
	}
}

func TestPublicSparsePath(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, n, c := 150, 400, 3
	b := srda.NewCSRBuilder(m, n)
	labels := make([]int, m)
	for i := 0; i < m; i++ {
		labels[i] = i % c
		// topic block per class + background words
		for k := 0; k < 12; k++ {
			b.Add(i, labels[i]*100+rng.Intn(60), 1)
		}
		for k := 0; k < 6; k++ {
			b.Add(i, 300+rng.Intn(100), 1)
		}
	}
	x := b.Build()
	model, err := srda.FitCSR(x, labels, c, srda.Options{Alpha: 0.5, LSQRIter: 50, Whiten: true})
	if err != nil {
		t.Fatal(err)
	}
	emb := model.TransformSparse(x)
	nc, err := srda.FitNearestCentroid(emb, labels, c)
	if err != nil {
		t.Fatal(err)
	}
	if errRate := srda.ErrorRate(nc.Predict(emb), labels); errRate > 0.02 {
		t.Fatalf("training error %.3f on separable topics", errRate)
	}
}

func TestPublicModelPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := blobs(rng, 60, 8, 2, 5)
	model, err := srda.Fit(x, y, 2, srda.Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := srda.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := model.TransformDense(x), loaded.TransformDense(x)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatal("loaded model disagrees")
			}
		}
	}
}

func TestPublicResponses(t *testing.T) {
	y, err := srda.Responses([]int{0, 1, 2, 0, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if y.Rows != 6 || y.Cols != 2 {
		t.Fatalf("responses %dx%d", y.Rows, y.Cols)
	}
	for j := 0; j < 2; j++ {
		var s float64
		for i := 0; i < 6; i++ {
			s += y.At(i, j)
		}
		if math.Abs(s) > 1e-9 {
			t.Fatalf("response %d not zero-sum", j)
		}
	}
}

func TestPublicBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := blobs(rng, 100, 10, 4, 6)
	ldaModel, err := srda.FitLDA(x, y, 4, srda.LDAOptions{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ldaModel.Dim() < 1 || ldaModel.Dim() > 3 {
		t.Fatalf("LDA dim %d", ldaModel.Dim())
	}
	idr, err := srda.FitIDRQR(x, y, 4, srda.IDRQROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if idr.Dim() < 1 || idr.Dim() > 3 {
		t.Fatalf("IDR/QR dim %d", idr.Dim())
	}
	sb, sw, st := srda.Scatters(x, y, 4)
	diff := sb.Clone()
	diff.AddScaled(1, sw)
	diff.AddScaled(-1, st)
	if diff.Norm() > 1e-8*(1+st.Norm()) {
		t.Fatal("scatter identity violated via public API")
	}
}

func TestPublicDatasetsAndHarness(t *testing.T) {
	ds := srda.PIELike(srda.PIEConfig{Classes: 4, PerClass: 12, Side: 8, Seed: 5})
	if ds.NumSamples() != 48 {
		t.Fatalf("samples %d", ds.NumSamples())
	}
	r := srda.Runner{Splits: 2, Seed: 6}
	g, err := r.RunPerClassGrid(ds, []srda.Algorithm{srda.AlgoSRDA, srda.AlgoIDRQR}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) != 1 || len(g.Cells[0]) != 2 {
		t.Fatal("grid shape wrong")
	}
}

func TestPublicComplexityModel(t *testing.T) {
	p := srda.ComplexityProblem{M: 2000, N: 784, C: 10, K: 20, S: 784}
	rows := srda.ComplexityTable(p)
	if len(rows) != 5 {
		t.Fatalf("%d complexity rows", len(rows))
	}
	if sp := srda.ComplexitySpeedup(p); sp <= 1 {
		t.Fatalf("speedup %v", sp)
	}
}

func TestPublicLibSVM(t *testing.T) {
	ds, err := srda.ReadLibSVM(bytes.NewBufferString("0 1:0.5 3:1\n1 2:2\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumSamples() != 2 || ds.NumFeatures() != 3 || ds.NumClasses != 2 {
		t.Fatalf("shape %d/%d/%d", ds.NumSamples(), ds.NumFeatures(), ds.NumClasses)
	}
}

func TestPublicOperatorFit(t *testing.T) {
	// Train through the matrix-free Operator interface.
	rng := rand.New(rand.NewSource(7))
	x, y := blobs(rng, 80, 12, 2, 6)
	model, err := srda.FitOperator(denseOp{x}, y, 2, srda.Options{Alpha: 1, LSQRIter: 100})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := srda.Fit(x, y, 2, srda.Options{Alpha: 1, Solver: srda.SolverLSQR, LSQRIter: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < model.W.Rows; i++ {
		for j := 0; j < model.W.Cols; j++ {
			if math.Abs(model.W.At(i, j)-direct.W.At(i, j)) > 1e-8 {
				t.Fatal("operator fit disagrees with direct LSQR fit")
			}
		}
	}
}

// denseOp adapts a Dense to the public Operator interface, demonstrating
// the matrix-free extension point.
type denseOp struct{ a *srda.Dense }

func (o denseOp) Dims() (int, int)                  { return o.a.Rows, o.a.Cols }
func (o denseOp) Apply(x, dst []float64) []float64  { return o.a.MulVec(x, dst) }
func (o denseOp) ApplyT(x, dst []float64) []float64 { return o.a.MulTVec(x, dst) }

func TestPublicExtensions(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := blobs(rng, 90, 10, 3, 8)

	// generalized SR with the class graph reproduces an SRDA-shaped model
	g, err := srda.ClassGraph(y, 3)
	if err != nil {
		t.Fatal(err)
	}
	srModel, err := srda.FitSR(x, g, srda.SROptions{Dim: 2, Alpha: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if srModel.Dim() != 2 {
		t.Fatalf("SR dim %d", srModel.Dim())
	}

	// unsupervised graph path
	knn := srda.KNNGraph(x, srda.KNNGraphOptions{K: 5, Weight: srda.WeightHeat})
	if knn.Size() != 90 {
		t.Fatalf("graph size %d", knn.Size())
	}

	// kernel SRDA
	km, err := srda.FitKSRDA(x, y, 3, srda.KSRDAOptions{Alpha: 1, Kernel: srda.RBFKernel{Gamma: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if km.Dim() != 2 {
		t.Fatalf("KSRDA dim %d", km.Dim())
	}

	// PCA
	p, err := srda.FitPCA(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim() != 3 || p.Transform(x).Cols != 3 {
		t.Fatal("PCA shape wrong")
	}
}

func TestPublicKFoldAlpha(t *testing.T) {
	ds := srda.PIELike(srda.PIEConfig{Classes: 4, PerClass: 15, Side: 8, Seed: 9})
	results, best, err := srda.KFoldAlpha(ds, []float64{0.1, 1, 10}, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || best < 0 || best > 2 {
		t.Fatalf("results %v best %d", results, best)
	}
}

func TestPublicSuffStatsMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, y := blobs(rng, 60, 9, 3, 6)
	stats, err := srda.NewSuffStats(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := stats.Absorb(x.RowView(i), y[i]); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := srda.FitStats(stats, srda.Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := srda.Fit(x, y, 3, srda.Options{Alpha: 1, Solver: srda.SolverPrimal})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range streamed.W.Data {
		if math.Float64bits(v) != math.Float64bits(batch.W.Data[i]) {
			t.Fatalf("streamed W[%d] = %v, batch %v", i, v, batch.W.Data[i])
		}
	}
	for j, v := range streamed.B {
		if math.Float64bits(v) != math.Float64bits(batch.B[j]) {
			t.Fatalf("streamed B[%d] = %v, batch %v", j, v, batch.B[j])
		}
	}
}

func TestPublicOutOfCoreTraining(t *testing.T) {
	// Build a sparse corpus, write it to disk, train without loading it.
	corpus := srda.NewsLike(srda.NewsConfig{Classes: 3, Docs: 150, Vocab: 800, AvgLen: 30, Seed: 11})
	path := filepath.Join(t.TempDir(), "corpus.csr")
	if err := corpus.Sparse.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	d, err := srda.OpenDiskCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	opt := srda.Options{Alpha: 1, LSQRIter: 15, Workers: 2}
	ooc, err := srda.FitDiskCSR(d, corpus.Labels, corpus.NumClasses, opt)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := srda.FitCSR(corpus.Sparse, corpus.Labels, corpus.NumClasses,
		srda.Options{Alpha: 1, LSQRIter: 15})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ooc.W.Rows; i++ {
		for j := 0; j < ooc.W.Cols; j++ {
			if math.Abs(ooc.W.At(i, j)-mem.W.At(i, j)) > 1e-9 {
				t.Fatal("out-of-core and in-memory models differ")
			}
		}
	}
}

func TestPublicLDAVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x, y := blobs(rng, 40, 60, 3, 8) // n > m so NLDA's null space exists
	ff, err := srda.FitFisherfaces(x, y, 3, srda.FisherfacesOptions{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ff.Dim() < 1 {
		t.Fatal("Fisherfaces produced no directions")
	}
	ol, err := srda.FitOrthogonalLDA(x, y, 3, srda.LDAOptions{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ol.Dim() < 1 {
		t.Fatal("OLDA produced no directions")
	}
	nl, err := srda.FitNullSpaceLDA(x, y, 3, srda.LDAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nl.Dim() < 1 {
		t.Fatal("NLDA produced no directions")
	}
}

func TestPublicMetrics(t *testing.T) {
	pred := []int{0, 1, 1, 0}
	truth := []int{0, 1, 0, 0}
	m, err := srda.ComputeMetrics(pred, truth, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy != 0.75 {
		t.Fatalf("accuracy %v", m.Accuracy)
	}
	if be, _ := srda.BalancedError(pred, truth, 2); be <= 0 {
		t.Fatalf("balanced error %v", be)
	}
	if mcc, _ := srda.MCC(pred, truth, 2); mcc <= 0 || mcc > 1 {
		t.Fatalf("mcc %v", mcc)
	}
	ranked := [][]int{{0, 1}, {1, 0}, {1, 0}, {0, 1}}
	if top1, _ := srda.TopKAccuracy(ranked, truth, 1); top1 != 0.75 {
		t.Fatalf("top1 %v", top1)
	}
}

func TestPublicGeneratorsAndKNN(t *testing.T) {
	iso := srda.IsoletLike(srda.IsoletConfig{Classes: 3, PerClass: 8, Dim: 30, Seed: 21})
	if iso.NumSamples() != 24 {
		t.Fatalf("isolet %d", iso.NumSamples())
	}
	mni := srda.MNISTLike(srda.MNISTConfig{Classes: 3, PerClass: 8, Side: 8, Seed: 22})
	if mni.NumFeatures() != 64 {
		t.Fatalf("mnist n=%d", mni.NumFeatures())
	}
	rng := rand.New(rand.NewSource(23))
	x, y := blobs(rng, 30, 6, 2, 8)
	model, err := srda.Fit(x, y, 2, srda.Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	emb := model.TransformDense(x)
	knn, err := srda.FitKNN(emb, y, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e := srda.ErrorRate(knn.Predict(emb), y); e > 0.05 {
		t.Fatalf("knn training error %v", e)
	}
}

func TestPublicClustering(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	x, truth := blobs(rng, 60, 4, 3, 10)
	km, err := srda.KMeans(x, 3, srda.KMeansOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(km.Assign) != 60 {
		t.Fatalf("assignments %d", len(km.Assign))
	}
	g := srda.KNNGraph(x, srda.KNNGraphOptions{K: 5})
	sc, err := srda.SpectralCluster(g, 3, srda.SpectralClusterOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// majority-mapping agreement on well-separated blobs must be high
	votes := map[[2]int]int{}
	for i := range sc.Assign {
		votes[[2]int{sc.Assign[i], truth[i]}]++
	}
	correct := 0
	for c := 0; c < 3; c++ {
		best := 0
		for y := 0; y < 3; y++ {
			if v := votes[[2]int{c, y}]; v > best {
				best = v
			}
		}
		correct += best
	}
	if frac := float64(correct) / 60; frac < 0.95 {
		t.Fatalf("spectral agreement %.2f", frac)
	}
}

func TestPublicTextPipeline(t *testing.T) {
	docs := []string{"compiling kernels and linking objects", "kernels compile with linkers",
		"the striker scored goals", "goals win matches for strikers"}
	labels := []int{0, 0, 1, 1}
	vec, ds, err := srda.NewTextVectorizer(docs, labels, 2, srda.TextVectorizerOptions{Stem: true, TFIDF: true})
	if err != nil {
		t.Fatal(err)
	}
	if vec.NumTerms() == 0 || ds.NumSamples() != 4 {
		t.Fatal("vectorizer misbehaved")
	}
	var buf bytes.Buffer
	if err := vec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := srda.LoadTextVectorizer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTerms() != vec.NumTerms() {
		t.Fatal("vectorizer round trip lost terms")
	}
	if srda.StemWord("linking") != "link" {
		t.Fatalf("StemWord: %q", srda.StemWord("linking"))
	}
	if !srda.IsStopWord("and") {
		t.Fatal("IsStopWord")
	}
	if toks := srda.TokenizeText("A b-c"); len(toks) != 3 {
		t.Fatalf("tokens %v", toks)
	}
}

func TestPublic2DLDA(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	side := 8
	m := 60
	x := srda.NewDense(m, side*side)
	labels := make([]int, m)
	for i := 0; i < m; i++ {
		labels[i] = i % 3
		row := x.RowView(i)
		for j := range row {
			row[j] = 0.3 * rng.NormFloat64()
		}
		// class-specific row stripe
		for c := 0; c < side; c++ {
			row[labels[i]*2*side+c] += 2
		}
	}
	model, err := srda.Fit2DLDA(x, side, side, labels, 3, srda.TwoDLDAOptions{DimL: 2, DimR: 2})
	if err != nil {
		t.Fatal(err)
	}
	emb := model.Transform(x)
	if emb.Cols != 4 {
		t.Fatalf("embedding dims %d", emb.Cols)
	}
	nc, err := srda.FitNearestCentroid(emb, labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e := srda.ErrorRate(nc.Predict(emb), labels); e > 0.05 {
		t.Fatalf("2DLDA training error %v", e)
	}
}
