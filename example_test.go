package srda_test

import (
	"fmt"
	"math/rand"

	"srda"
)

// exampleData builds a deterministic, trivially separable 2-class problem
// so the Example outputs are stable.
func exampleData() (*srda.Dense, []int) {
	rng := rand.New(rand.NewSource(7))
	x := srda.NewDense(40, 5)
	labels := make([]int, 40)
	for i := 0; i < 40; i++ {
		labels[i] = i % 2
		row := x.RowView(i)
		for j := range row {
			row[j] = 0.1 * rng.NormFloat64()
		}
		row[0] += 5 * float64(labels[i])
	}
	return x, labels
}

// The core loop: fit SRDA, embed, classify.
func ExampleFit() {
	x, labels := exampleData()
	model, err := srda.Fit(x, labels, 2, srda.Options{Alpha: 1, Whiten: true})
	if err != nil {
		panic(err)
	}
	fmt.Println("embedding dims:", model.Dim())
	fmt.Println("training errors:", countErrors(model.PredictDense(x), labels))
	// Output:
	// embedding dims: 1
	// training errors: 0
}

// Sparse text-style data goes through the linear-time LSQR path.
func ExampleFitCSR() {
	b := srda.NewCSRBuilder(6, 10)
	labels := []int{0, 0, 0, 1, 1, 1}
	for i, y := range labels {
		b.Add(i, y*4, 1) // class-specific term
		b.Add(i, 9, 0.5) // shared background term
		_ = i
	}
	model, err := srda.FitCSR(b.Build(), labels, 2, srda.Options{Alpha: 0.1, LSQRIter: 50})
	if err != nil {
		panic(err)
	}
	fmt.Println("dims:", model.Dim(), "iters > 0:", model.Iters > 0)
	// Output:
	// dims: 1 iters > 0: true
}

// The responses-generation step (eq. 15–16) on its own: orthonormal,
// zero-sum class targets.
func ExampleResponses() {
	y, err := srda.Responses([]int{0, 0, 1, 1}, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d×%d responses; y[0]=%.2f y[2]=%.2f\n", y.Rows, y.Cols, y.At(0, 0), y.At(2, 0))
	// Output:
	// 4×1 responses; y[0]=0.50 y[2]=-0.50
}

// The complexity model behind Table I.
func ExampleComplexitySpeedup() {
	p := srda.ComplexityProblem{M: 9470, N: 26214, C: 20, K: 15, S: 80}
	fmt.Printf("modeled LDA/SRDA speedup: %.1fx\n", srda.ComplexitySpeedup(p))
	// Output:
	// modeled LDA/SRDA speedup: 5.6x
}

// Streaming training with exact batch equivalence.
func ExampleNewSuffStats() {
	x, labels := exampleData()
	stats, err := srda.NewSuffStats(5, 2)
	if err != nil {
		panic(err)
	}
	for i := 0; i < x.Rows; i++ {
		if err := stats.Absorb(x.RowView(i), labels[i]); err != nil {
			panic(err)
		}
	}
	model, err := srda.FitStats(stats, srda.Options{Alpha: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("seen:", stats.Seen(), "dims:", model.Dim())
	// Output:
	// seen: 40 dims: 1
}

func countErrors(pred, truth []int) int {
	n := 0
	for i := range pred {
		if pred[i] != truth[i] {
			n++
		}
	}
	return n
}
