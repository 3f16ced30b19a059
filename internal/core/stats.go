package core

import (
	"fmt"
	"math"

	"srda/internal/blas"
	"srda/internal/decomp"
	"srda/internal/mat"
	"srda/internal/regress"
)

// SuffStats holds the bounded-memory sufficient statistics of an SRDA
// primal fit: the upper triangle of the augmented Gram matrix X̃ᵀX̃, the
// per-class sums of augmented samples, and the class counts.  Memory is
// O(n² + c·n) regardless of how many samples stream through — the state
// the online trainer keeps between refits.
//
// The per-sample absorption loop is, deliberately, the same loop
// mat.ParGram's gramUpperRange runs with the sample index outermost: the
// same exact-zero skip, the same Axpy over the row tail.  Because ParGram
// shards only output rows and feeds every row its rank-one contributions
// in ascending sample order, absorbing a dataset sample by sample leaves
// a Gram upper triangle bitwise identical to mat.ParGram on the same rows
// at any worker count.  That identity — not an approximation — is what
// lets FitStats promise Float64bits equality with the batch fit.
type SuffStats struct {
	n, c   int
	counts []int
	// classSums is c×(n+1): per-class sums of augmented samples [x, 1]
	// (the last column duplicates counts).
	classSums *mat.Dense
	// gram is (n+1)×(n+1) with only the upper triangle maintained;
	// decomp.ParCholesky reads nothing else.
	gram *mat.Dense
	seen int
	aug  []float64 // scratch: augmented sample
}

// NewSuffStats starts empty sufficient statistics for
// numFeatures-dimensional samples in numClasses classes.
func NewSuffStats(numFeatures, numClasses int) (*SuffStats, error) {
	if numFeatures < 1 {
		return nil, fmt.Errorf("core: need at least 1 feature")
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("core: need at least 2 classes")
	}
	na := numFeatures + 1
	return &SuffStats{
		n:         numFeatures,
		c:         numClasses,
		counts:    make([]int, numClasses),
		classSums: mat.NewDense(numClasses, na),
		gram:      mat.NewDense(na, na),
		aug:       make([]float64, na),
	}, nil
}

// NumFeatures returns n.
func (s *SuffStats) NumFeatures() int { return s.n }

// NumClasses returns c.
func (s *SuffStats) NumClasses() int { return s.c }

// Seen returns the number of absorbed samples.
func (s *SuffStats) Seen() int { return s.seen }

// ClassCounts returns a copy of the per-class sample counts.
func (s *SuffStats) ClassCounts() []int {
	return append([]int(nil), s.counts...)
}

// ClassMean writes class k's running feature mean into dst (allocated
// when nil) and returns it, or nil when the class is still empty.
func (s *SuffStats) ClassMean(k int, dst []float64) []float64 {
	if k < 0 || k >= s.c || s.counts[k] == 0 {
		return nil
	}
	if dst == nil {
		dst = make([]float64, s.n)
	}
	row := s.classSums.RowView(k)
	inv := 1 / float64(s.counts[k])
	for j := 0; j < s.n; j++ {
		dst[j] = row[j] * inv
	}
	return dst
}

// Check reports whether Absorb would take x with label: n features, each
// finite, and a label in [0,c).  It is the one validator of the
// streaming path; the online trainer checks a whole batch with it before
// absorbing any row.  A NaN or ±Inf feature would poison the Gram matrix
// for every later refit.
func (s *SuffStats) Check(x []float64, label int) error {
	if len(x) != s.n {
		return fmt.Errorf("core: sample has %d features, expected %d", len(x), s.n)
	}
	if label < 0 || label >= s.c {
		return fmt.Errorf("core: label %d out of range [0,%d)", label, s.c)
	}
	for j, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: feature %d is not finite (%v)", j, v)
		}
	}
	return nil
}

// Absorb accumulates one dense labeled sample in O(n²), refusing what
// Check refuses.
func (s *SuffStats) Absorb(x []float64, label int) error {
	if err := s.Check(x, label); err != nil {
		return err
	}
	copy(s.aug, x)
	s.aug[s.n] = 1
	s.absorbAug(label)
	return nil
}

// absorbAug folds the augmented scratch sample into the Gram upper
// triangle and the class sums.  The triangle loop mirrors
// mat.gramUpperRange exactly (see the type comment).
func (s *SuffStats) absorbAug(label int) {
	na := s.n + 1
	g := s.gram
	for i := 0; i < na; i++ {
		v := s.aug[i]
		if v == 0 { //srdalint:ignore floatcmp exact sparsity skip shared with mat.ParGram, part of the bitwise-equality contract
			continue
		}
		blas.Axpy(v, s.aug[i:], g.Data[i*g.Stride+i:i*g.Stride+na])
	}
	blas.Axpy(1, s.aug, s.classSums.RowView(label))
	s.counts[label]++
	s.seen++
}

// FitStats solves the SRDA primal fit from sufficient statistics alone —
// the incremental ↔ batch bridge.  No pass over the data: responses come
// from the class counts (O(c³)), X̃ᵀY collapses to classSumsᵀ·V because
// responses are constant within classes, and the Gram matrix is factored
// fresh with the ridge added to a copy, leaving s reusable for further
// absorption.  The returned model carries stats-based centroids (the
// embedded class means), so it is a complete nearest-centroid classifier.
//
// Called on statistics absorbed sample by sample in dataset row order,
// the result is bitwise identical to the batch FitDense primal fit on the
// same data (which routes through this same function).
func FitStats(s *SuffStats, opt Options) (*Model, error) {
	if err := regress.CheckAlpha(opt.Alpha); err != nil {
		return nil, err
	}
	sp := opt.Span.StartChild("responses")
	rt, err := ResponsesFromCounts(s.counts)
	sp.End()
	if err != nil {
		return nil, err
	}
	na := s.n + 1
	// Ridge on a copy: the accumulated Gram stays raw for future refits.
	g := s.gram.Clone()
	for i := 0; i < na; i++ {
		g.Set(i, i, g.At(i, i)+opt.Alpha)
	}
	sp = opt.Span.StartChild("cholesky")
	ch, err := decomp.ParCholesky(opt.Workers, g)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: normal equations not positive definite (alpha=%v): %w", opt.Alpha, err)
	}
	sp = opt.Span.StartChild("xty")
	// X̃ᵀY = classSumsᵀ · values  ((n+1)×c · c×(c−1))
	xty := mat.MulTA(s.classSums, rt.Values)
	sp.End()
	sp = opt.Span.StartChild("solve")
	wAug := ch.Solve(xty)
	sp.End()
	k := wAug.Cols
	model := &Model{
		W:          wAug.Slice(0, s.n, 0, k).Clone(),
		B:          make([]float64, k),
		NumClasses: s.c,
		Alpha:      opt.Alpha,
		Strategy:   regress.Primal,
		Workers:    opt.Workers,
	}
	for j := 0; j < k; j++ {
		model.B[j] = wAug.At(s.n, j)
	}
	model.Stats.Strategy = regress.Primal
	model.Stats.CondEstimate = ch.CondEstimate()
	setStatsCentroids(model, s)
	return model, nil
}

// setStatsCentroids stores the embedded class means computed from the
// running class sums: centroid_k = Wᵀ·mean_k + b.  Linearity makes this
// the exact embedding of the class mean, and both the streaming and the
// batch primal path derive it from identical statistics, so the centroids
// inherit the bitwise-equality guarantee.
func setStatsCentroids(m *Model, s *SuffStats) {
	cent := mat.NewDense(s.c, m.Dim())
	mean := make([]float64, s.n)
	for k := 0; k < s.c; k++ {
		row := s.classSums.RowView(k)
		inv := 1 / float64(s.counts[k])
		for j := 0; j < s.n; j++ {
			mean[j] = row[j] * inv
		}
		m.TransformVec(mean, cent.RowView(k))
	}
	m.Centroids = cent
}

// fitDensePrimalStats is the batch entry of the bridge: it builds the
// same sufficient statistics a streaming pass would — the Gram through
// mat.ParGram (bitwise identical to per-sample absorption at any worker
// count), the class sums in sample order — and solves through FitStats.
// Compared with the previous regress-layer primal path this also saves
// the O(m·n·c) X̃ᵀY product (now O(m·c + n·c²)) and the extra full-data
// projection pass that mean-of-embedding centroids used to cost.
func fitDensePrimalStats(x *mat.Dense, labels []int, numClasses int, opt Options) (*Model, error) {
	counts, err := classStats(labels, numClasses)
	if err != nil {
		return nil, err
	}
	s := &SuffStats{
		n:         x.Cols,
		c:         numClasses,
		counts:    counts,
		classSums: mat.NewDense(numClasses, x.Cols+1),
		seen:      x.Rows,
		aug:       make([]float64, x.Cols+1),
	}
	xa := regress.Augment(x)
	sp := opt.Span.StartChild("gram")
	s.gram = mat.ParGram(opt.Workers, xa)
	for i := 0; i < x.Rows; i++ {
		blas.Axpy(1, xa.RowView(i), s.classSums.RowView(labels[i]))
	}
	sp.End()
	return FitStats(s, opt)
}
