package regress_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"srda"
	"srda/internal/decomp"
	"srda/internal/mat"
	"srda/internal/regress"
	"srda/internal/solver"
	"srda/internal/sparse"
)

// fitBits is a fit reduced to the bits the LSQR path must reproduce:
// an FNV-1a digest of W's Float64bits (row-major, shape included), and
// B, the per-response iteration counts and final residuals in full.
type fitBits struct {
	w     uint64
	b     []uint64
	iters []int
	res   []uint64
}

func bitsOf(w *mat.Dense, b []float64, st regress.Stats) fitBits {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	put(uint64(w.Rows))
	put(uint64(w.Cols))
	for i := 0; i < w.Rows; i++ {
		for _, v := range w.RowView(i) {
			put(math.Float64bits(v))
		}
	}
	fb := fitBits{w: h.Sum64(), iters: st.IterCounts}
	for _, v := range b {
		fb.b = append(fb.b, math.Float64bits(v))
	}
	for _, v := range st.Residuals {
		fb.res = append(fb.res, math.Float64bits(v))
	}
	return fb
}

func (f fitBits) String() string {
	hex := func(u []uint64) string {
		s := make([]string, len(u))
		for i, v := range u {
			s[i] = fmt.Sprintf("%#016x", v)
		}
		return strings.Join(s, ", ")
	}
	return fmt.Sprintf("fitBits{w: %#016x, b: []uint64{%s}, iters: %#v, res: []uint64{%s}}",
		f.w, hex(f.b), f.iters, hex(f.res))
}

// rowsOp is an operator defined outside the library: it has no block
// forms, so the solver reaches it through the per-column adapter.
type rowsOp struct{ rows [][]float64 }

func (o rowsOp) Dims() (int, int) { return len(o.rows), len(o.rows[0]) }

func (o rowsOp) Apply(x, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(o.rows))
	}
	for i, r := range o.rows {
		var s float64
		for j, v := range r {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

func (o rowsOp) ApplyT(x, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(o.rows[0]))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, r := range o.rows {
		for j, v := range r {
			dst[j] += v * x[i]
		}
	}
	return dst
}

func goldenDense(seed int64, r, c int) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	d := mat.NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

func goldenLabels(seed int64, m, classes int) []int {
	rng := rand.New(rand.NewSource(seed))
	labels := make([]int, m)
	for i := range labels {
		labels[i] = i % classes
		if i >= classes {
			labels[i] = rng.Intn(classes)
		}
	}
	return labels
}

// TestLockstepMatchesParentBitwise pins the LSQR path to bits recorded
// from the per-response solver that preceded the lockstep one: every
// case must reproduce W, B, the iteration counts and the residuals
// exactly, whatever the worker count.
func TestLockstepMatchesParentBitwise(t *testing.T) {
	news := srda.NewsLike(srda.NewsConfig{Classes: 5, Docs: 400, Vocab: 1500, Seed: 17})
	newsFit := func(workers int) func() (fitBits, error) {
		return func() (fitBits, error) {
			m, err := srda.FitCSR(news.Sparse, news.Labels, news.NumClasses,
				srda.Options{Alpha: 1, LSQRIter: 8, Workers: workers})
			if err != nil {
				return fitBits{}, err
			}
			return bitsOf(m.W, m.B, m.Stats), nil
		}
	}
	newsWant := fitBits{
		w:     0x47f68d88e41cba8c,
		b:     []uint64{0xbf2527fb914245e5, 0x3f73823b655af401, 0xbf41e83f8ea53be0, 0x3f614a2311cb935b},
		iters: []int{8, 8, 8, 8},
		res:   []uint64{0x3fe20efc052e1920, 0x3fe1cb6715e15d50, 0x3fe1ffd11551836d, 0x3fe27269ca2422e4},
	}
	cases := []struct {
		name string
		fit  func() (fitBits, error)
		want fitBits
	}{
		// Every response stops at the iteration cap.
		{"news-capped/workers=1", newsFit(1), newsWant},
		{"news-capped/workers=2", newsFit(2), newsWant},
		{"news-capped/workers=7", newsFit(7), newsWant},
		// Responses converge at different iterations below the cap.
		{"dense-converging", func() (fitBits, error) {
			// X has 16 distinct singular values; response j is supported
			// on the first 2, 5, 9 and 80 rows, so its Krylov space is
			// exhausted after 2, 5, 9 and 16 iterations.
			x := mat.NewDense(80, 16)
			for j := 0; j < 16; j++ {
				x.Set(j, j, float64(j+1))
			}
			y := goldenDense(32, 80, 4)
			for j, r := range []int{2, 5, 9} {
				for i := r; i < y.Rows; i++ {
					y.Set(i, j, 0)
				}
			}
			m, err := regress.FitDense(x, y, regress.Options{Alpha: 0.01, Strategy: regress.IterLSQR, LSQRIter: 60, Workers: 2})
			if err != nil {
				return fitBits{}, err
			}
			return bitsOf(m.W, m.B, m.Stats), nil
		}, fitBits{
			w:     0x42d8bee3d43ecf09,
			b:     []uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
			iters: []int{2, 5, 9, 16},
			res:   []uint64{0x3fb7a814ce291030, 0x3fb685127b5e4b61, 0x3fc3c349623b284b, 0x4022c3f9942c6ca0},
		}},
		// Undamped consistent systems: each response stops on the
		// residual test, which reads ‖x‖, at a different iteration.
		{"consistent-undamped", func() (fitBits, error) {
			// X = Q·diag(1..14) with orthonormal Q: response j lies in
			// the span of the first 3, 6 and 10 singular directions, so
			// the residual test stops it after 3, 6 and 10 iterations.
			x := decomp.NewQR(goldenDense(61, 70, 14)).ThinQ()
			for i := 0; i < x.Rows; i++ {
				for j, v := range x.RowView(i) {
					x.Set(i, j, v*float64(j+1))
				}
			}
			w := goldenDense(62, 14, 4)
			for j, r := range []int{3, 6, 10} {
				for i := r; i < w.Rows; i++ {
					w.Set(i, j, 0)
				}
			}
			m, err := regress.FitOperator(solver.SparseOp{A: sparse.FromDense(x, 0)}, mat.Mul(x, w), regress.Options{LSQRIter: 40})
			if err != nil {
				return fitBits{}, err
			}
			return bitsOf(m.W, m.B, m.Stats), nil
		}, fitBits{
			w:     0x5946e3a399b1bec7,
			b:     []uint64{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
			iters: []int{3, 6, 10, 14},
			res:   []uint64{0x3da80b588fce2d65, 0x3e69d4c777a2f04a, 0x3e970bff03f3251b, 0x3e5d1e4c4acaf752},
		}},
		// Response 1 is all zeros: it stops before the first iteration.
		{"zero-response", func() (fitBits, error) {
			x := goldenDense(41, 50, 12)
			y := goldenDense(42, 50, 3)
			for i := 0; i < y.Rows; i++ {
				y.Set(i, 1, 0)
			}
			m, err := regress.FitOperator(solver.DenseOp{A: x}, y, regress.Options{Alpha: 0.5, Intercept: true, LSQRIter: 20})
			if err != nil {
				return fitBits{}, err
			}
			return bitsOf(m.W, m.B, m.Stats), nil
		}, fitBits{
			w:     0xf386350236ab81c0,
			b:     []uint64{0x3fb995520b35849e, 0x0000000000000000, 0xbfc718bdc8305d23},
			iters: []int{13, 0, 12},
			res:   []uint64{0x401806d88e08b3fa, 0x0000000000000000, 0x401631194e8696d0},
		}},
		// A user operator through the public matrix-free entry point.
		{"user-operator", func() (fitBits, error) {
			x := goldenDense(51, 45, 10)
			rows := make([][]float64, x.Rows)
			for i := range rows {
				rows[i] = x.RowView(i)
			}
			m, err := srda.FitOperator(rowsOp{rows}, goldenLabels(52, x.Rows, 4), 4,
				srda.Options{Alpha: 0.3, LSQRIter: 25, Workers: 3})
			if err != nil {
				return fitBits{}, err
			}
			return bitsOf(m.W, m.B, m.Stats), nil
		}, fitBits{
			w:     0x8752d4841c037a57,
			b:     []uint64{0x3f561c2e5aba5171, 0xbf8272172e3a05b0, 0xbf82faefe48474d6},
			iters: []int{11, 11, 11},
			res:   []uint64{0x3fecbc4fea499975, 0x3feaaf8a72d95f54, 0x3febcb7ccf2a9550},
		}},
	}
	for _, tc := range cases {
		got, err := tc.fit()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.String() != tc.want.String() {
			t.Errorf("%s:\n got  %v\n want %v", tc.name, got, tc.want)
		}
	}
}
