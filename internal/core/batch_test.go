package core

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"srda/internal/mat"
	"srda/internal/sparse"
)

// fitBlobModel trains a centroided model on separable blobs, returning the
// model plus a held-out batch from the same distribution.
func fitBlobModel(t *testing.T, m, n, c int, seed int64) (*Model, *mat.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x, labels := gaussianBlobs(rng, m, n, c, 6)
	model, err := FitDense(x, labels, c, Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.SetCentroids(model.TransformDense(x), labels); err != nil {
		t.Fatal(err)
	}
	batch, _ := gaussianBlobs(rng, 64, n, c, 6)
	return model, batch
}

func toCSR(x *mat.Dense) *sparse.CSR {
	b := sparse.NewBuilder(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.RowView(i) {
			if v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}

// embedOracle computes xW + b with mat.Mul, apart from the projection
// kernels under test.
func embedOracle(m *Model, x *mat.Dense) *mat.Dense {
	out := mat.Mul(x, m.W)
	for i := 0; i < out.Rows; i++ {
		row := out.RowView(i)
		for j := range row {
			row[j] += m.B[j]
		}
	}
	return out
}

// nearestOracle assigns each embedded row to the centroid at the least
// squared distance, summed directly per row.
func nearestOracle(emb, cent *mat.Dense) []int {
	out := make([]int, emb.Rows)
	for i := range out {
		best, bestD := -1, math.Inf(1)
		for k := 0; k < cent.Rows; k++ {
			var d float64
			for j, v := range emb.RowView(i) {
				diff := v - cent.At(k, j)
				d += diff * diff
			}
			if d < bestD {
				best, bestD = k, d
			}
		}
		out[i] = best
	}
	return out
}

func sameClasses(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d predictions, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, oracle %d", name, i, got[i], want[i])
		}
	}
}

func TestProjectBatchMatchesTransformDense(t *testing.T) {
	model, batch := fitBlobModel(t, 150, 40, 5, 21)
	want := embedOracle(model, batch)
	for name, got := range map[string]*mat.Dense{
		"ProjectBatch":   model.ProjectBatch(batch, nil),
		"TransformDense": model.TransformDense(batch),
	} {
		if !mat.Equalish(want, got, 1e-12) {
			t.Fatalf("%s diverges from xW + b by %g", name, mat.MaxAbsDiff(want, got))
		}
	}
	// Reusing a destination buffer must not change the result.
	dst := mat.NewDense(batch.Rows, model.Dim())
	for i := range dst.Data {
		dst.Data[i] = 999 // stale garbage that must be overwritten
	}
	got2 := model.ProjectBatch(batch, dst)
	if got2 != dst {
		t.Fatal("ProjectBatch did not reuse the provided destination")
	}
	if !mat.Equalish(want, got2, 1e-12) {
		t.Fatalf("ProjectBatch with reused dst diverges by %g", mat.MaxAbsDiff(want, got2))
	}
}

func TestProjectBatchCSRMatchesTransformSparse(t *testing.T) {
	model, batch := fitBlobModel(t, 150, 40, 5, 22)
	sp := toCSR(batch)
	want := embedOracle(model, batch)
	for name, got := range map[string]*mat.Dense{
		"ProjectBatchCSR": model.ProjectBatchCSR(sp, nil),
		"TransformSparse": model.TransformSparse(sp),
	} {
		if !mat.Equalish(want, got, 1e-12) {
			t.Fatalf("%s diverges from xW + b by %g", name, mat.MaxAbsDiff(want, got))
		}
	}
	dst := mat.NewDense(sp.Rows, model.Dim())
	for i := range dst.Data {
		dst.Data[i] = -123
	}
	got2 := model.ProjectBatchCSR(sp, dst)
	if got2 != dst || !mat.Equalish(want, got2, 1e-12) {
		t.Fatal("ProjectBatchCSR with reused dst diverges")
	}
}

func TestPredictBatchMatchesPredictDense(t *testing.T) {
	for _, c := range []int{2, 5} { // c=2 exercises the 1-dimensional embedding
		model, batch := fitBlobModel(t, 120, 30, c, int64(30+c))
		want := nearestOracle(embedOracle(model, batch), model.Centroids)
		sameClasses(t, fmt.Sprintf("c=%d PredictBatch", c), model.PredictBatch(batch), want)
		sameClasses(t, fmt.Sprintf("c=%d PredictDense", c), model.PredictDense(batch), want)
	}
}

func TestPredictBatchCSRMatchesPredictSparse(t *testing.T) {
	for _, c := range []int{2, 6} {
		model, batch := fitBlobModel(t, 120, 30, c, int64(40+c))
		sp := toCSR(batch)
		want := nearestOracle(embedOracle(model, batch), model.Centroids)
		sameClasses(t, fmt.Sprintf("c=%d PredictBatchCSR", c), model.PredictBatchCSR(sp), want)
		sameClasses(t, fmt.Sprintf("c=%d PredictSparse", c), model.PredictSparse(sp), want)
	}
}

func TestPredictBatchEmptyAndPanics(t *testing.T) {
	model, _ := fitBlobModel(t, 100, 20, 3, 50)
	if got := model.PredictBatch(mat.NewDense(0, 20)); len(got) != 0 {
		t.Fatalf("empty batch produced %d predictions", len(got))
	}
	model.Centroids = nil
	defer func() {
		if recover() == nil {
			t.Fatal("PredictBatch without centroids did not panic")
		}
	}()
	model.PredictBatch(mat.NewDense(1, 20))
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	model, batch := fitBlobModel(t, 100, 20, 4, 60)
	path := filepath.Join(t.TempDir(), "sub", "..", "m.bin") // normal dir path
	path = filepath.Clean(path)
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equalish(model.W, loaded.W, 0) || !mat.Equalish(model.Centroids, loaded.Centroids, 0) {
		t.Fatal("round trip changed the model")
	}
	want := model.PredictBatch(batch)
	got := loaded.PredictBatch(batch)
	for i := range want {
		if want[i] != got[i] {
			t.Fatal("round-tripped model predicts differently")
		}
	}
	// Overwriting an existing file must also succeed (rename over target).
	if err := loaded.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("LoadFile on a missing path succeeded")
	}
}
