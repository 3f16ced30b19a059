package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

var matEqWorkers = []int{1, 2, 4, 7}

// matEqShapes covers degenerate, unroll-straddling, and over-threshold
// (r*c*k >= 32Ki) shapes so both the sequential fallback and the sharded
// path of every Par* function are exercised.
var matEqShapes = []struct{ r, c int }{
	{0, 0}, {0, 4}, {4, 0}, {1, 1}, {3, 7}, {64, 65}, {65, 64}, {130, 300}, {300, 130},
}

func matBitsEqual(t *testing.T, name string, w int, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s workers=%d: shape %dx%d, want %dx%d", name, w, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < got.Rows; i++ {
		rg, rw := got.RowView(i), want.RowView(i)
		for j := range rg {
			if math.Float64bits(rg[j]) != math.Float64bits(rw[j]) {
				t.Fatalf("%s workers=%d: (%d,%d) = %v, sequential %v", name, w, i, j, rg[j], rw[j])
			}
		}
	}
}

func TestParMulFamilyBitwiseEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, sh := range matEqShapes {
		a := randDense(rng, sh.r, sh.c)
		bt := randDense(rng, sh.r, sh.c) // same rows as a for TA
		wantTA := MulTA(a, bt)
		for _, w := range matEqWorkers {
			matBitsEqual(t, "ParMulTA", w, ParMulTA(w, a, bt), wantTA)
		}
	}
}

func TestParGramBitwiseEqualsGram(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, sh := range matEqShapes {
		a := randDense(rng, sh.r, sh.c)
		wantG := Gram(a)
		wantGT := GramT(a)
		for _, w := range matEqWorkers {
			matBitsEqual(t, "ParGram", w, ParGram(w, a), wantG)
			matBitsEqual(t, "ParGramT", w, ParGramT(w, a), wantGT)
		}
	}
}

func TestParMulVecBitwiseEqualsMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, sh := range matEqShapes {
		a := randDense(rng, sh.r, sh.c)
		x := make([]float64, sh.c)
		xt := make([]float64, sh.r)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range xt {
			xt[i] = rng.NormFloat64()
		}
		want := a.MulVec(x, nil)
		wantT := a.MulTVec(xt, nil)
		for _, w := range matEqWorkers {
			got := a.ParMulVec(w, x, nil)
			gotT := a.ParMulTVec(w, xt, nil)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("ParMulVec workers=%d: [%d] %v vs %v", w, i, got[i], want[i])
				}
			}
			for j := range wantT {
				if math.Float64bits(gotT[j]) != math.Float64bits(wantT[j]) {
					t.Fatalf("ParMulTVec workers=%d: [%d] %v vs %v", w, j, gotT[j], wantT[j])
				}
			}
		}
	}
}

// TestParMulOnSlicedViews mirrors TestMulOnSlicedViews: sharding must
// respect strides of non-compact views.
func TestParMulOnSlicedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	big := randDense(rng, 140, 90)
	a := big.Slice(5, 133, 3, 50)
	b := randDense(rng, a.Rows, 40)
	matBitsEqual(t, "ParMulTA/view", 7, ParMulTA(7, a, b), MulTA(a, b))
	matBitsEqual(t, "ParGram/view", 7, ParGram(7, a), Gram(a))
	matBitsEqual(t, "ParGramT/view", 7, ParGramT(7, a), GramT(a))
}

// gramSink keeps BenchmarkParGram's result live.
var gramSink *Dense

// BenchmarkParGram times the Gram of a 1500×785 matrix at density 0.6,
// the fit-dense primal shape, at several worker counts.
func BenchmarkParGram(b *testing.B) {
	rng := rand.New(rand.NewSource(64))
	a := randDense(rng, 1500, 785)
	for i := range a.Data {
		if rng.Float64() < 0.4 {
			a.Data[i] = 0
		}
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gramSink = ParGram(w, a)
			}
		})
	}
}
