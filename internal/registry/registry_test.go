package registry

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"srda/internal/core"
	"srda/internal/mat"
)

// trainBlobs fits a centroided model on well-separated Gaussian blobs.
func trainBlobs(t *testing.T, n, c int, seed int64) *core.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := 40 * c
	x := mat.NewDense(m, n)
	labels := make([]int, m)
	for i := 0; i < m; i++ {
		labels[i] = i % c
		row := x.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		row[0] += 8 * float64(labels[i])
	}
	model, err := core.FitDense(x, labels, c, core.Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.SetCentroids(model.TransformDense(x), labels); err != nil {
		t.Fatal(err)
	}
	return model
}

func probe(n int, class int) []float64 {
	x := make([]float64, n)
	x[0] = 8 * float64(class)
	return x
}

func TestPublishGetVersioning(t *testing.T) {
	r := New(Options{})
	if _, ok := r.Get("a"); ok {
		t.Fatal("empty registry returned a model")
	}
	mA := trainBlobs(t, 8, 3, 1)
	s1, err := r.Publish("a", mA)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Version != 1 || s1.Bytes != EstimateBytes(mA) {
		t.Fatalf("first publish: %+v", s1)
	}
	s2, err := r.Publish("a", trainBlobs(t, 8, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version != 2 {
		t.Fatalf("second publish version = %d", s2.Version)
	}
	got, ok := r.Get("a")
	if !ok || got.Version != 2 {
		t.Fatalf("Get returned %+v, %v", got, ok)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Bytes() != got.Bytes {
		t.Fatalf("Bytes = %d, live version says %d", r.Bytes(), got.Bytes)
	}
	if r.mx.hits.Value("a") != 1 || r.mx.misses.Value("a") != 1 {
		t.Fatalf("hit/miss counters: %d/%d", r.mx.hits.Value("a"), r.mx.misses.Value("a"))
	}
}

func TestPublishRejects(t *testing.T) {
	r := New(Options{})
	if _, err := r.Publish("", trainBlobs(t, 8, 3, 1)); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := r.Publish("a", nil); err == nil {
		t.Fatal("nil model accepted")
	}
	m := trainBlobs(t, 8, 3, 1)
	m.Centroids = nil
	if _, err := r.Publish("a", m); err == nil {
		t.Fatal("centroid-less model accepted")
	}
}

// TestRollbackGolden pins the rollback contract: after publishing v2 and
// rolling back, the live model's predictions are bitwise identical to
// v1's, and the version counter keeps moving forward.
func TestRollbackGolden(t *testing.T) {
	r := New(Options{})
	mA := trainBlobs(t, 10, 3, 3)
	mB := trainBlobs(t, 10, 3, 4)
	if _, err := r.Publish("m", mA); err != nil {
		t.Fatal(err)
	}
	x := probe(10, 1)
	want := mA.TransformVec(x, nil)

	if _, err := r.Rollback("m"); err == nil {
		t.Fatal("rollback with a single version accepted")
	}
	if _, err := r.Publish("m", mB); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Rollback("m")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 3 {
		t.Fatalf("rollback version = %d, want 3 (monotonic)", snap.Version)
	}
	if snap.Model != mA {
		t.Fatal("rollback did not reinstate the previous model")
	}
	got := snap.Model.TransformVec(x, nil)
	for d := range want {
		if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
			t.Fatalf("dim %d: rollback embedding %x, v1 embedding %x",
				d, math.Float64bits(got[d]), math.Float64bits(want[d]))
		}
	}
	if _, err := r.Rollback("nope"); err == nil {
		t.Fatal("rollback of unknown model accepted")
	}
}

// TestEvictionLRU holds the byte budget: publishing past it evicts the
// least-recently-used name, a Get refreshes recency, and the name being
// published is never its own victim.
func TestEvictionLRU(t *testing.T) {
	mA := trainBlobs(t, 8, 3, 5)
	per := EstimateBytes(mA)
	r := New(Options{MaxBytes: 2 * per})
	for i, name := range []string{"a", "b"} {
		if _, err := r.Publish(name, trainBlobs(t, 8, 3, int64(5+i))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the LRU victim.
	if _, ok := r.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	if _, err := r.Publish("c", trainBlobs(t, 8, 3, 7)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("b"); ok {
		t.Fatal("LRU name b survived over budget")
	}
	for _, name := range []string{"a", "c"} {
		if _, ok := r.Get(name); !ok {
			t.Fatalf("%s evicted, want b", name)
		}
	}
	if r.Bytes() > 2*per {
		t.Fatalf("resident %d bytes over budget %d", r.Bytes(), 2*per)
	}
	if r.mx.evictions.Value() != 1 {
		t.Fatalf("evictions = %d", r.mx.evictions.Value())
	}
	// A single oversized publish keeps its own name even over budget.
	tiny := New(Options{MaxBytes: 1})
	if _, err := tiny.Publish("big", mA); err != nil {
		t.Fatal(err)
	}
	if _, ok := tiny.Get("big"); !ok {
		t.Fatal("publish evicted itself")
	}
}

// TestConcurrentPublishEvictPredict is the registry race test: readers
// predict through snapshots while writers publish, roll back, and force
// evictions.  Run under -race via make race.
func TestConcurrentPublishEvictPredict(t *testing.T) {
	base := trainBlobs(t, 8, 3, 8)
	per := EstimateBytes(base)
	r := New(Options{MaxBytes: 3 * per})
	names := []string{"t0", "t1", "t2", "t3"}
	models := make([]*core.Model, len(names))
	for i := range names {
		models[i] = trainBlobs(t, 8, 3, int64(20+i))
		if _, err := r.Publish(names[i], models[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	const rounds = 100
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := names[g]
			for i := 0; i < rounds; i++ {
				if _, err := r.Publish(name, models[g]); err != nil {
					t.Errorf("publish %s: %v", name, err)
					return
				}
				if i%10 == 9 {
					// Rollback may race an eviction of its own name and
					// report it unknown; that is a miss, not an error.
					_, _ = r.Rollback(name)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := probe(8, g%3)
			for i := 0; i < rounds; i++ {
				snap, ok := r.Get(names[(g+i)%len(names)])
				if !ok {
					continue // evicted; a miss, not an error
				}
				if got := snap.Model.PredictVec(x); got < 0 || got >= 3 {
					t.Errorf("predict through snapshot returned class %d", got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Len() == 0 {
		t.Fatal("all models evicted")
	}
}

func TestDeleteAndList(t *testing.T) {
	r := New(Options{})
	for i := 0; i < 3; i++ {
		if _, err := r.Publish(fmt.Sprintf("m%d", i), trainBlobs(t, 8, 3, int64(30+i))); err != nil {
			t.Fatal(err)
		}
	}
	ls := r.List()
	if len(ls) != 3 || ls[0].Name != "m0" || ls[2].Name != "m2" {
		t.Fatalf("List = %+v", ls)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	want := map[string]*core.Model{}
	for i, name := range []string{"alpha", "beta", "gamma"} {
		m := trainBlobs(t, 8, 3, int64(40+i))
		if err := m.SaveFile(filepath.Join(dir, name+".srda")); err != nil {
			t.Fatal(err)
		}
		want[name] = m
	}
	r := New(Options{})
	names, err := r.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "alpha" || names[2] != "gamma" {
		t.Fatalf("LoadDir names = %v", names)
	}
	for name, m := range want {
		snap, ok := r.Get(name)
		if !ok {
			t.Fatalf("%s not published", name)
		}
		x := probe(8, 2)
		if snap.Model.PredictVec(x) != m.PredictVec(x) {
			t.Fatalf("%s round-trips with different predictions", name)
		}
	}
	if _, err := r.LoadDir(filepath.Join(dir, "nope")); err == nil {
		t.Fatal("missing dir accepted")
	}
}
