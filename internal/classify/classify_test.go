package classify

import (
	"math/rand"
	"testing"

	"srda/internal/mat"
)

func TestNearestCentroidBasic(t *testing.T) {
	emb := mat.FromRows([][]float64{{0, 0}, {0.2, 0}, {5, 5}, {5.2, 5}})
	labels := []int{0, 0, 1, 1}
	nc, err := FitNearestCentroid(emb, labels, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := nc.PredictVec([]float64{0.1, -0.1}); got != 0 {
		t.Fatalf("predicted %d", got)
	}
	if got := nc.PredictVec([]float64{4.9, 5.3}); got != 1 {
		t.Fatalf("predicted %d", got)
	}
	pred := nc.Predict(emb)
	if ErrorRate(pred, labels) != 0 {
		t.Fatal("training error should be zero on separated clusters")
	}
}

func TestNearestCentroidCentroidValues(t *testing.T) {
	emb := mat.FromRows([][]float64{{1, 0}, {3, 0}, {10, 10}})
	nc, err := FitNearestCentroid(emb, []int{0, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if nc.Centroids.At(0, 0) != 2 || nc.Centroids.At(0, 1) != 0 {
		t.Fatalf("centroid 0 = %v,%v", nc.Centroids.At(0, 0), nc.Centroids.At(0, 1))
	}
}

func TestNearestCentroidValidation(t *testing.T) {
	emb := mat.NewDense(3, 2)
	if _, err := FitNearestCentroid(emb, []int{0, 1}, 2); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FitNearestCentroid(emb, []int{0, 1, 5}, 2); err == nil {
		t.Fatal("bad label accepted")
	}
	if _, err := FitNearestCentroid(emb, []int{0, 0, 0}, 2); err == nil {
		t.Fatal("empty class accepted")
	}
}

func TestKNNOneNearestMemorizesTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	emb := mat.NewDense(30, 3)
	labels := make([]int, 30)
	for i := 0; i < 30; i++ {
		for j := 0; j < 3; j++ {
			emb.Set(i, j, rng.NormFloat64())
		}
		labels[i] = i % 3
	}
	knn, err := FitKNN(emb, labels, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pred := knn.Predict(emb)
	if ErrorRate(pred, labels) != 0 {
		t.Fatal("1-NN must have zero training error with distinct points")
	}
}

func TestKNNMajorityVote(t *testing.T) {
	emb := mat.FromRows([][]float64{{0}, {0.1}, {0.2}, {10}})
	labels := []int{0, 0, 0, 1}
	knn, err := FitKNN(emb, labels, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// query near the lone class-1 point, but 2 of the 3 neighbors are 0...
	if got := knn.PredictVec([]float64{0.15}); got != 0 {
		t.Fatalf("majority vote gave %d", got)
	}
	if got := knn.PredictVec([]float64{10.1}); got != 0 {
		// 3 nearest of {0,0.1,0.2,10} to 10.1: 10 (lab 1), 0.2, 0.1 (lab 0,0)
		// → majority says 0 even though 1 is nearest.
		t.Fatalf("expected majority class 0, got %d", got)
	}
	knn1, _ := FitKNN(emb, labels, 2, 1)
	if got := knn1.PredictVec([]float64{10.1}); got != 1 {
		t.Fatalf("1-NN should pick 1, got %d", got)
	}
}

func TestKNNTieBreaksTowardNearer(t *testing.T) {
	emb := mat.FromRows([][]float64{{0}, {2}})
	labels := []int{0, 1}
	knn, err := FitKNN(emb, labels, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := knn.PredictVec([]float64{0.5}); got != 0 {
		t.Fatalf("tie should break toward nearer class, got %d", got)
	}
	if got := knn.PredictVec([]float64{1.5}); got != 1 {
		t.Fatalf("tie should break toward nearer class, got %d", got)
	}
}

func TestKNNClampsK(t *testing.T) {
	emb := mat.FromRows([][]float64{{0}, {1}})
	knn, err := FitKNN(emb, []int{0, 1}, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if knn.K != 2 {
		t.Fatalf("K=%d want clamp to 2", knn.K)
	}
	if _, err := FitKNN(emb, []int{0, 1}, 2, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestErrorRateAndConfusion(t *testing.T) {
	pred := []int{0, 1, 1, 0}
	truth := []int{0, 1, 0, 0}
	if got := ErrorRate(pred, truth); got != 0.25 {
		t.Fatalf("ErrorRate=%v", got)
	}
	if got := ErrorRate(nil, nil); got != 0 {
		t.Fatalf("empty ErrorRate=%v", got)
	}
}
