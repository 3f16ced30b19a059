package classify

import (
	"math"
	"math/rand"
	"testing"

	"srda/internal/mat"
)

// TestPredictBatchMatchesPredict pins the GEMM-lowered batch path, and
// Predict on it, to a direct per-row squared-distance argmin on random
// embeddings, including the d=1 (c=2) case.
func TestPredictBatchMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []struct{ c, d int }{{2, 1}, {4, 3}, {10, 9}} {
		emb := mat.NewDense(200, shape.d)
		labels := make([]int, emb.Rows)
		for i := 0; i < emb.Rows; i++ {
			labels[i] = i % shape.c
			row := emb.RowView(i)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			row[0] += 5 * float64(labels[i])
		}
		nc, err := FitNearestCentroid(emb, labels, shape.c)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, emb.Rows)
		for i := range want {
			bestD := math.Inf(1)
			for k := 0; k < shape.c; k++ {
				var d float64
				for j, v := range emb.RowView(i) {
					diff := v - nc.Centroids.At(k, j)
					d += diff * diff
				}
				if d < bestD {
					want[i], bestD = k, d
				}
			}
		}
		for name, got := range map[string][]int{"PredictBatch": nc.PredictBatch(emb), "Predict": nc.Predict(emb)} {
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("c=%d d=%d: %s[%d]=%d, oracle %d", shape.c, shape.d, name, i, got[i], want[i])
				}
			}
		}
	}
	if got := (&NearestCentroid{Centroids: mat.NewDense(3, 2)}).PredictBatch(mat.NewDense(0, 2)); len(got) != 0 {
		t.Fatalf("empty batch produced %d predictions", len(got))
	}
}
