package decomp

import (
	"math"

	"srda/internal/mat"
)

// SVD holds a thin singular value decomposition A = U diag(σ) Vᵀ truncated
// to the numerical rank r: U is m×r, V is n×r, and Sigma holds the r
// positive singular values in descending order.
type SVD struct {
	U     *mat.Dense
	V     *mat.Dense
	Sigma []float64
}

// Rank returns the number of retained singular values.
func (s *SVD) Rank() int { return len(s.Sigma) }

// NewSVD computes the thin SVD of a via the cross-product strategy the
// paper describes in §II-B: eigendecompose the smaller of AᵀA (n×n) and
// AAᵀ (m×m), then recover the other singular-vector matrix through
// U = A V Σ⁻¹ (or V = Aᵀ U Σ⁻¹).  Singular values with
// σ <= rcond·σ_max are discarded, which is how the LDA baseline handles
// the singular-scatter problem.
//
// The cross-product squares the condition number, so σ below ~1e-8·σ_max
// is noise; rcond <= 0 selects a default of 1e-10 (applied to σ², i.e.
// 1e-5 on σ) suitable for this project's well-scaled data.
func NewSVD(a *mat.Dense, rcond float64) (*SVD, error) {
	m, n := a.Rows, a.Cols
	if rcond <= 0 {
		rcond = 1e-10
	}
	if m == 0 || n == 0 {
		return &SVD{U: mat.NewDense(m, 0), V: mat.NewDense(n, 0)}, nil
	}
	if m >= n {
		g := mat.Gram(a) // AᵀA, n×n
		eig, err := NewSymEig(g)
		if err != nil {
			return nil, err
		}
		return svdFromEig(a, eig, rcond, false)
	}
	g := mat.GramT(a) // AAᵀ, m×m
	eig, err := NewSymEig(g)
	if err != nil {
		return nil, err
	}
	return svdFromEig(a, eig, rcond, true)
}

// svdFromEig turns the eigendecomposition of a cross-product matrix into a
// thin SVD.  When fromLeft is true the eigenvectors are U (of AAᵀ) and V is
// recovered; otherwise they are V (of AᵀA) and U is recovered.
func svdFromEig(a *mat.Dense, eig *SymEig, rcond float64, fromLeft bool) (*SVD, error) {
	lam := eig.Values
	var lamMax float64
	if len(lam) > 0 {
		lamMax = math.Max(lam[0], 0)
	}
	r := 0
	for _, l := range lam {
		if l > rcond*lamMax && l > 0 {
			r++
		}
	}
	sigma := make([]float64, r)
	for i := 0; i < r; i++ {
		sigma[i] = math.Sqrt(lam[i])
	}
	m, n := a.Rows, a.Cols
	if fromLeft {
		u := eig.Vectors.Slice(0, m, 0, r).Clone()
		// V = Aᵀ U Σ⁻¹
		v := mat.MulTA(a, u)
		for j := 0; j < r; j++ {
			inv := 1 / sigma[j]
			for i := 0; i < n; i++ {
				v.Set(i, j, v.At(i, j)*inv)
			}
		}
		return &SVD{U: u, V: v, Sigma: sigma}, nil
	}
	v := eig.Vectors.Slice(0, n, 0, r).Clone()
	// U = A V Σ⁻¹
	u := mat.Mul(a, v)
	for j := 0; j < r; j++ {
		inv := 1 / sigma[j]
		for i := 0; i < m; i++ {
			u.Set(i, j, u.At(i, j)*inv)
		}
	}
	return &SVD{U: u, V: v, Sigma: sigma}, nil
}

// Reconstruct returns U diag(σ) Vᵀ, the rank-r approximation of the
// original matrix (equal to it when no singular values were truncated).
func (s *SVD) Reconstruct() *mat.Dense {
	r := s.Rank()
	us := s.U.Clone()
	for j := 0; j < r; j++ {
		for i := 0; i < us.Rows; i++ {
			us.Set(i, j, us.At(i, j)*s.Sigma[j])
		}
	}
	return mat.MulTB(us, s.V)
}

// OrthoError returns max(‖UᵀU - I‖_max, ‖VᵀV - I‖_max), a cheap health
// check used by tests.
func (s *SVD) OrthoError() float64 {
	check := func(q *mat.Dense) float64 {
		g := mat.MulTA(q, q)
		var worst float64
		for i := 0; i < g.Rows; i++ {
			for j := 0; j < g.Cols; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if d := math.Abs(g.At(i, j) - want); d > worst {
					worst = d
				}
			}
		}
		return worst
	}
	return math.Max(check(s.U), check(s.V))
}
