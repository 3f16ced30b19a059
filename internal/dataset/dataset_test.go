package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"srda/internal/mat"
)

func smallPIE() *Dataset {
	return PIELike(PIEConfig{Classes: 6, PerClass: 20, Side: 12, Seed: 42})
}

func TestPIELikeShape(t *testing.T) {
	d := smallPIE()
	if d.NumSamples() != 120 || d.NumFeatures() != 144 || d.NumClasses != 6 {
		t.Fatalf("shape %dx%d c=%d", d.NumSamples(), d.NumFeatures(), d.NumClasses)
	}
	if d.IsSparse() {
		t.Fatal("PIE-like must be dense")
	}
	// pixel range [0,1]
	for _, v := range d.Dense.Data {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v outside [0,1]", v)
		}
	}
	counts := d.ClassCounts()
	for k, c := range counts {
		if c != 20 {
			t.Fatalf("class %d has %d samples", k, c)
		}
	}
}

func TestGeneratorsDeterministicBySeed(t *testing.T) {
	a := PIELike(PIEConfig{Classes: 3, PerClass: 5, Side: 8, Seed: 7})
	b := PIELike(PIEConfig{Classes: 3, PerClass: 5, Side: 8, Seed: 7})
	if !mat.Equalish(a.Dense, b.Dense, 0) {
		t.Fatal("same seed must give identical data")
	}
	c := PIELike(PIEConfig{Classes: 3, PerClass: 5, Side: 8, Seed: 8})
	if mat.Equalish(a.Dense, c.Dense, 0) {
		t.Fatal("different seeds must differ")
	}
}

func TestIsoletLikeShape(t *testing.T) {
	d := IsoletLike(IsoletConfig{Classes: 5, PerClass: 12, Dim: 50, Seed: 1})
	if d.NumSamples() != 60 || d.NumFeatures() != 50 {
		t.Fatalf("shape %dx%d", d.NumSamples(), d.NumFeatures())
	}
}

func TestMNISTLikeShape(t *testing.T) {
	d := MNISTLike(MNISTConfig{Classes: 4, PerClass: 10, Side: 10, Seed: 1})
	if d.NumSamples() != 40 || d.NumFeatures() != 100 {
		t.Fatalf("shape %dx%d", d.NumSamples(), d.NumFeatures())
	}
	for _, v := range d.Dense.Data {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v outside [0,1]", v)
		}
	}
}

func TestNewsLikeSparseShape(t *testing.T) {
	d := NewsLike(NewsConfig{Classes: 4, Docs: 200, Vocab: 3000, AvgLen: 40, Seed: 1})
	if !d.IsSparse() {
		t.Fatal("news-like must be sparse")
	}
	if d.NumSamples() != 200 || d.NumFeatures() != 3000 {
		t.Fatalf("shape %dx%d", d.NumSamples(), d.NumFeatures())
	}
	// rows are L2-normalized
	for i := 0; i < d.NumSamples(); i++ {
		if nrm := d.Sparse.RowNorm2(i); math.Abs(nrm-1) > 1e-9 {
			t.Fatalf("row %d norm² = %v", i, nrm)
		}
	}
	// sparsity: far fewer nonzeros than vocab
	if s := d.AvgNNZ(); s <= 0 || s > 80 {
		t.Fatalf("avg nnz %v implausible for AvgLen=40", s)
	}
}

func TestNewsLikeClassesAreDistinguishable(t *testing.T) {
	// Same-class documents must be more similar (cosine) than cross-class
	// on average — otherwise the topic structure is broken.
	d := NewsLike(NewsConfig{Classes: 3, Docs: 120, Vocab: 2000, AvgLen: 60, Seed: 2})
	dense := d.DenseView()
	var same, cross float64
	var nSame, nCross int
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			var dot float64
			ri, rj := dense.RowView(i), dense.RowView(j)
			for k := range ri {
				dot += ri[k] * rj[k]
			}
			if d.Labels[i] == d.Labels[j] {
				same += dot
				nSame++
			} else {
				cross += dot
				nCross++
			}
		}
	}
	if same/float64(nSame) <= cross/float64(nCross) {
		t.Fatalf("same-class cosine %.4f not above cross-class %.4f",
			same/float64(nSame), cross/float64(nCross))
	}
}

func TestSubsetPreservesRows(t *testing.T) {
	d := smallPIE()
	idx := []int{5, 0, 40}
	s := d.Subset(idx)
	if s.NumSamples() != 3 {
		t.Fatalf("subset size %d", s.NumSamples())
	}
	for r, i := range idx {
		if s.Labels[r] != d.Labels[i] {
			t.Fatal("label mismatch")
		}
		for j := 0; j < d.NumFeatures(); j++ {
			if s.Dense.At(r, j) != d.Dense.At(i, j) {
				t.Fatal("row content mismatch")
			}
		}
	}
}

func TestSplitPerClass(t *testing.T) {
	d := smallPIE()
	rng := rand.New(rand.NewSource(3))
	train, test, err := d.SplitPerClass(rng, 7)
	if err != nil {
		t.Fatal(err)
	}
	if train.NumSamples() != 6*7 {
		t.Fatalf("train size %d", train.NumSamples())
	}
	if test.NumSamples() != 6*13 {
		t.Fatalf("test size %d", test.NumSamples())
	}
	for k, c := range train.ClassCounts() {
		if c != 7 {
			t.Fatalf("train class %d has %d", k, c)
		}
	}
	// too-large request errors
	if _, _, err := d.SplitPerClass(rng, 20); err == nil {
		t.Fatal("oversized split accepted")
	}
}

func TestSplitFraction(t *testing.T) {
	d := NewsLike(NewsConfig{Classes: 4, Docs: 100, Vocab: 500, AvgLen: 20, Seed: 4})
	rng := rand.New(rand.NewSource(5))
	train, test, err := d.SplitFraction(rng, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got := train.NumSamples(); got != 20 {
		t.Fatalf("train %d want 20", got)
	}
	if train.NumSamples()+test.NumSamples() != 100 {
		t.Fatal("split loses samples")
	}
	for _, bad := range []float64{0, 1, -0.5, 0.999} {
		if _, _, err := d.SplitFraction(rng, bad); err == nil {
			t.Fatalf("fraction %v accepted", bad)
		}
	}
}

func TestSplitsAreDisjointAndExhaustive(t *testing.T) {
	d := smallPIE()
	rng := rand.New(rand.NewSource(6))
	train, test, err := d.SplitPerClass(rng, 5)
	if err != nil {
		t.Fatal(err)
	}
	// fingerprint rows by content hash to check disjointness
	seen := map[string]int{}
	key := func(ds *Dataset, i int) string {
		row := ds.Dense.RowView(i)
		b := make([]byte, 0, 64)
		for j := 0; j < 8; j++ {
			b = append(b, byte(int(row[j]*255)))
		}
		return string(b)
	}
	for i := 0; i < train.NumSamples(); i++ {
		seen[key(train, i)]++
	}
	overlap := 0
	for i := 0; i < test.NumSamples(); i++ {
		if seen[key(test, i)] > 0 {
			overlap++
		}
	}
	// hash collisions possible but rare; require near-zero overlap
	if overlap > 2 {
		t.Fatalf("train/test overlap %d rows", overlap)
	}
	if train.NumSamples()+test.NumSamples() != d.NumSamples() {
		t.Fatal("split not exhaustive")
	}
}

func TestDescribe(t *testing.T) {
	d := NewsLike(NewsConfig{Classes: 2, Docs: 40, Vocab: 300, AvgLen: 15, Seed: 7})
	s := d.Describe()
	if s.Size != 40 || s.Dim != 300 || s.Classes != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.SparseRatio <= 0 || s.SparseRatio >= 0.5 {
		t.Fatalf("sparse ratio %v", s.SparseRatio)
	}
	d2 := smallPIE()
	if d2.Describe().SparseRatio != 1 {
		t.Fatal("dense data should report ratio 1")
	}
}

func TestLibSVMRoundTrip(t *testing.T) {
	d := NewsLike(NewsConfig{Classes: 3, Docs: 30, Vocab: 200, AvgLen: 10, Seed: 8})
	var buf bytes.Buffer
	if err := d.WriteLibSVM(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLibSVM(&buf, 200)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSamples() != 30 || back.NumClasses != 3 {
		t.Fatalf("round trip shape %d/%d", back.NumSamples(), back.NumClasses)
	}
	a, b := d.DenseView(), back.DenseView()
	if diff := mat.MaxAbsDiff(a, b); diff > 1e-7 {
		t.Fatalf("round trip differs by %v", diff)
	}
	for i := range d.Labels {
		if d.Labels[i] != back.Labels[i] {
			t.Fatal("labels differ after round trip")
		}
	}
}

func TestLibSVMDenseWrite(t *testing.T) {
	d := &Dataset{
		Name:       "tiny",
		Dense:      mat.FromRows([][]float64{{1, 0, 2}, {0, 0, 0.5}}),
		Labels:     []int{0, 1},
		NumClasses: 2,
	}
	var buf bytes.Buffer
	if err := d.WriteLibSVM(&buf); err != nil {
		t.Fatal(err)
	}
	want := "0 1:1 3:2\n1 3:0.5\n"
	if buf.String() != want {
		t.Fatalf("got %q want %q", buf.String(), want)
	}
}

func TestReadLibSVMErrors(t *testing.T) {
	for _, bad := range []string{
		"x 1:2\n",      // bad label
		"-1 1:2\n",     // negative label
		"0 12\n",       // missing colon
		"0 0:1\n",      // 0-based index
		"0 1:notnum\n", // bad value
		"0 1:nan\n",    // non-finite values
		"0 2:1 1:-inf\n",
		"1 3:+Inf\n",
	} {
		if _, err := ReadLibSVM(bytes.NewBufferString(bad), 0); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
	// declared dim too small
	if _, err := ReadLibSVM(bytes.NewBufferString("0 5:1\n"), 3); err == nil {
		t.Fatal("accepted out-of-range feature")
	}
	// comments and blank lines skipped
	ds, err := ReadLibSVM(bytes.NewBufferString("# comment\n\n1 2:0.5\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumSamples() != 1 || ds.NumFeatures() != 2 {
		t.Fatalf("shape %dx%d", ds.NumSamples(), ds.NumFeatures())
	}
}

func TestPIEWithinClassVariationIsCorrelated(t *testing.T) {
	// The pose factors must induce within-class covariance far from
	// spherical: the top within-class variance direction carries much more
	// energy than the median.  (This is what separates the generator from
	// plain blobs and lets RLDA/SRDA beat IDR/QR as in the paper.)
	d := PIELike(PIEConfig{Classes: 2, PerClass: 60, Side: 10, Seed: 9})
	x := d.Dense
	// class 0 rows
	var rows [][]float64
	for i, lab := range d.Labels {
		if lab == 0 {
			rows = append(rows, x.RowView(i))
		}
	}
	sub := mat.FromRows(rows)
	sub.CenterRows()
	g := mat.Gram(sub)
	// power iteration for top eigenvalue
	v := make([]float64, g.Cols)
	for i := range v {
		v[i] = 1
	}
	var top float64
	for it := 0; it < 50; it++ {
		w := g.MulVec(v, nil)
		var nrm float64
		for _, u := range w {
			nrm += u * u
		}
		nrm = math.Sqrt(nrm)
		for i := range w {
			v[i] = w[i] / nrm
		}
		top = nrm
	}
	var trace float64
	for i := 0; i < g.Rows; i++ {
		trace += g.At(i, i)
	}
	avg := trace / float64(g.Rows)
	if top < 10*avg {
		t.Fatalf("within-class covariance too spherical: top %v vs avg %v", top, avg)
	}
}

func TestAlignFeatures(t *testing.T) {
	d := NewsLike(NewsConfig{Classes: 2, Docs: 20, Vocab: 100, AvgLen: 10, Seed: 9})
	wider := d.AlignFeatures(150)
	if wider.NumFeatures() != 150 || wider.Sparse.NNZ() != d.Sparse.NNZ() {
		t.Fatalf("pad: n=%d nnz=%d", wider.NumFeatures(), wider.Sparse.NNZ())
	}
	narrower := d.AlignFeatures(50)
	if narrower.NumFeatures() != 50 {
		t.Fatalf("trim: n=%d", narrower.NumFeatures())
	}
	for i := 0; i < narrower.NumSamples(); i++ {
		cols, _ := narrower.Sparse.Row(i)
		for _, j := range cols {
			if j >= 50 {
				t.Fatal("trim left out-of-range column")
			}
		}
	}
	if d.AlignFeatures(d.NumFeatures()) != d {
		t.Fatal("no-op align should return receiver")
	}
	// dense path
	dd := d.ToDense()
	if got := dd.AlignFeatures(130); got.NumFeatures() != 130 || got.Dense.At(0, 120) != 0 {
		t.Fatal("dense pad failed")
	}
}

func FuzzReadLibSVM(f *testing.F) {
	f.Add("0 1:0.5 3:1\n1 2:2\n")
	f.Add("# comment\n\n2 10:1e-3\n")
	f.Add("0 1:nan\n")
	f.Add("5 1:1 1:2 1:3\n")
	f.Fuzz(func(t *testing.T, input string) {
		// must never panic; on success the dataset must be self-consistent
		ds, err := ReadLibSVM(bytes.NewBufferString(input), 0)
		if err != nil {
			return
		}
		if ds.NumSamples() != len(ds.Labels) {
			t.Fatal("sample/label count mismatch")
		}
		for i := 0; i < ds.NumSamples(); i++ {
			cols, _ := ds.Sparse.Row(i)
			for _, j := range cols {
				if j < 0 || j >= ds.NumFeatures() {
					t.Fatalf("column %d out of range", j)
				}
			}
		}
		for _, y := range ds.Labels {
			if y < 0 || y >= ds.NumClasses {
				t.Fatal("label out of range")
			}
		}
		for _, v := range ds.Sparse.Val {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite value %v", v)
			}
		}
	})
}

func TestCorruptLabels(t *testing.T) {
	d := smallPIE()
	rng := rand.New(rand.NewSource(90))
	noisy, flipped := d.CorruptLabels(rng, 0.3)
	if noisy.NumSamples() != d.NumSamples() {
		t.Fatal("size changed")
	}
	nFlipped := 0
	for i := range flipped {
		if flipped[i] {
			nFlipped++
			if noisy.Labels[i] == d.Labels[i] {
				t.Fatal("flipped label equals original")
			}
			if noisy.Labels[i] < 0 || noisy.Labels[i] >= d.NumClasses {
				t.Fatal("flipped label out of range")
			}
		} else if noisy.Labels[i] != d.Labels[i] {
			t.Fatal("unflipped label changed")
		}
	}
	frac := float64(nFlipped) / float64(d.NumSamples())
	if frac < 0.15 || frac > 0.45 {
		t.Fatalf("flip fraction %v far from 0.3", frac)
	}
	// originals untouched; data shared
	if &noisy.Dense.Data[0] != &d.Dense.Data[0] {
		t.Fatal("design matrix should be shared")
	}
	// boundary cases
	clean, f2 := d.CorruptLabels(rng, 0)
	for i := range f2 {
		if f2[i] || clean.Labels[i] != d.Labels[i] {
			t.Fatal("frac=0 must be a no-op")
		}
	}
}
