package decomp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"srda/internal/blas"
	"srda/internal/mat"
)

// unblockedCholesky is the unblocked right-looking sweep NewCholesky ran
// before the panel form: after pivot k is taken, every trailing row
// i > k receives one Axpy.  It is the oracle the blocked kernel must
// match bit for bit.
func unblockedCholesky(a *mat.Dense) (*mat.Dense, error) {
	n := a.Rows
	r := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		copy(r.RowView(i)[i:], a.RowView(i)[i:])
	}
	for k := 0; k < n; k++ {
		rk := r.RowView(k)
		d := rk[k]
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		rk[k] = d
		inv := 1 / d
		for j := k + 1; j < n; j++ {
			rk[j] *= inv
		}
		for i := k + 1; i < n; i++ {
			blas.Axpy(-rk[i], rk[i:], r.RowView(i)[i:])
		}
	}
	return r, nil
}

// cholBitsEqual compares two factor results: both failed with
// ErrNotPositiveDefinite, or both succeeded with bitwise-equal R.
func cholBitsEqual(got *Cholesky, gotErr error, want *mat.Dense, wantErr error) error {
	if gotErr != nil || wantErr != nil {
		if !errors.Is(gotErr, ErrNotPositiveDefinite) || !errors.Is(wantErr, ErrNotPositiveDefinite) {
			return fmt.Errorf("errors differ: got %v, want %v", gotErr, wantErr)
		}
		return nil
	}
	for i := range want.Data {
		if math.Float64bits(got.R.Data[i]) != math.Float64bits(want.Data[i]) {
			return fmt.Errorf("R[%d,%d] = %v, want %v", i/want.Cols, i%want.Cols, got.R.Data[i], want.Data[i])
		}
	}
	return nil
}

// notPDAt zeroes A[p,p] of an SPD matrix, which makes pivot p equal to
// −Σ_{k<p} R[k,p]² ≤ 0 while leaving every earlier pivot untouched: the
// factorization fails exactly at p.
func notPDAt(a *mat.Dense, p int) *mat.Dense {
	b := a.Clone()
	b.Set(p, p, 0)
	return b
}

// TestParCholeskyBitwiseEqualsUnblocked sweeps shapes across the panel
// edges, panel widths 1–64 and 1, 2, 4 and 7 workers, with SPD inputs and
// inputs whose failing pivot lies in a later panel.
func TestParCholeskyBitwiseEqualsUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 63, 64, 65, 97, 130} {
		a := randSPD(rng, n)
		inputs := []*mat.Dense{a}
		if n > 2 {
			inputs = append(inputs, notPDAt(a, n-1), notPDAt(a, n/2+1))
		}
		for _, in := range inputs {
			want, wantErr := unblockedCholesky(in)
			for _, w := range []int{1, 2, 4, 7} {
				got, err := ParCholesky(w, in)
				if e := cholBitsEqual(got, err, want, wantErr); e != nil {
					t.Fatalf("n=%d workers=%d: %v", n, w, e)
				}
				for _, panel := range []int{1, 2, 5, 16, 31, 33, 64} {
					got, err := parCholesky(w, panel, in)
					if e := cholBitsEqual(got, err, want, wantErr); e != nil {
						t.Fatalf("n=%d workers=%d panel=%d: %v", n, w, panel, e)
					}
				}
			}
		}
	}
}

// FuzzParCholesky: for any shape up to 130 (crossing the 32-row panel
// edges), 1–7 workers, and inputs that either are SPD or lose positive
// definiteness at a chosen pivot, ParCholesky matches NewCholesky and the
// unblocked sweep under math.Float64bits, or all three return
// ErrNotPositiveDefinite.
func FuzzParCholesky(f *testing.F) {
	f.Add(int64(1), int64(33), int64(2), int64(-1))
	f.Add(int64(2), int64(65), int64(7), int64(40))
	f.Fuzz(func(t *testing.T, seed, n, workers, fail int64) {
		dim := int(uint64(n) % 131)
		w := 1 + int(uint64(workers)%7)
		a := randSPD(rand.New(rand.NewSource(seed)), dim)
		if fail >= 0 && dim > 0 {
			a = notPDAt(a, int(fail%int64(dim)))
		}
		want, wantErr := unblockedCholesky(a)
		seq, seqErr := NewCholesky(a)
		if e := cholBitsEqual(seq, seqErr, want, wantErr); e != nil {
			t.Fatalf("NewCholesky n=%d: %v", dim, e)
		}
		got, err := ParCholesky(w, a)
		if e := cholBitsEqual(got, err, want, wantErr); e != nil {
			t.Fatalf("ParCholesky n=%d workers=%d: %v", dim, w, e)
		}
	})
}

// cholSink keeps BenchmarkParCholesky's result live.
var cholSink *Cholesky

// BenchmarkParCholesky factors a 785×785 SPD matrix, the fit-dense
// normal-equations shape, at several worker counts.
func BenchmarkParCholesky(b *testing.B) {
	a := randSPD(rand.New(rand.NewSource(5)), 785)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ch, err := ParCholesky(w, a)
				if err != nil {
					b.Fatal(err)
				}
				cholSink = ch
			}
		})
	}
}
