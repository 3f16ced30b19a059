package sparse

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// FuzzCSRMulVec builds a random CSR from fuzzer-chosen shape/density
// parameters and cross-checks MulVec/MulTVec against the dense oracle
// (mat.Dense products on the uncompressed matrix), plus the Par* twins
// bitwise against the sequential kernels.  It then checks the block
// products of width k: every column of MulBlock/MulTBlock and their Par
// twins must be bitwise the single-vector MulVec/MulTVec of that column.
// zeroCol, when in [0, k), names a column of the Aᵀ·U input that is all
// zeros.  The checked-in corpus in testdata/fuzz/FuzzCSRMulVec seeds
// empty, single-entry, dense-ish, and ragged matrices, widths 1 and 19,
// and an all-zero column.
func FuzzCSRMulVec(f *testing.F) {
	f.Add(0, 0, int64(1), 0.5, 4, 3, -1)
	f.Add(1, 1, int64(2), 1.0, 2, 1, -1)
	f.Add(5, 3, int64(3), 0.0, 7, 2, 0)
	f.Add(7, 11, int64(4), 0.3, 3, 5, 4)
	f.Add(32, 17, int64(5), 0.05, 5, 19, -1)
	f.Add(13, 64, int64(6), 0.9, 1, 24, 7)
	f.Fuzz(func(t *testing.T, r, c int, seed int64, fill float64, workers, k, zeroCol int) {
		const maxDim = 64
		if r < 0 || c < 0 || r > maxDim || c > maxDim {
			t.Skip()
		}
		if math.IsNaN(fill) || fill < 0 || fill > 1 {
			t.Skip()
		}
		if workers < 0 || workers > 16 || k < 1 || k > 24 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		d, a := randSparseDense(rng, r, c, fill)

		x := make([]float64, c)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		xt := make([]float64, r)
		for i := range xt {
			xt[i] = rng.NormFloat64()
		}
		if r > 0 {
			xt[rng.Intn(r)] = 0 // exercise the xi == 0 skip
		}

		got := a.MulVec(x, nil)
		want := d.MulVec(x, nil)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("MulVec %dx%d fill=%v: row %d = %v, dense oracle %v", r, c, fill, i, got[i], want[i])
			}
		}
		gotT := a.MulTVec(xt, nil)
		wantT := d.MulTVec(xt, nil)
		for j := range wantT {
			if math.Abs(gotT[j]-wantT[j]) > 1e-9 {
				t.Fatalf("MulTVec %dx%d fill=%v: col %d = %v, dense oracle %v", r, c, fill, j, gotT[j], wantT[j])
			}
		}

		par := a.ParMulVec(workers, x, nil)
		for i := range got {
			if math.Float64bits(par[i]) != math.Float64bits(got[i]) {
				t.Fatalf("ParMulVec(workers=%d): row %d = %v, sequential %v", workers, i, par[i], got[i])
			}
		}
		parT := a.ParMulTVec(workers, xt, nil)
		for j := range gotT {
			if math.Float64bits(parT[j]) != math.Float64bits(gotT[j]) {
				t.Fatalf("ParMulTVec(workers=%d): col %d = %v, sequential %v", workers, j, parT[j], gotT[j])
			}
		}

		xb, ub := make([]float64, c*k), make([]float64, r*k)
		for i := range xb {
			xb[i] = rng.NormFloat64()
		}
		for i := range ub {
			if rng.Intn(4) > 0 { // leave a quarter exact zeros
				ub[i] = rng.NormFloat64()
			}
			if i%k == zeroCol {
				ub[i] = 0
			}
		}
		blocks := map[string][]float64{
			"MulBlock":     a.MulBlock(k, xb, nil),
			"ParMulBlock":  a.ParMulBlock(workers, k, xb, nil),
			"MulTBlock":    a.MulTBlock(k, ub, nil),
			"ParMulTBlock": a.ParMulTBlock(workers, k, ub, nil),
		}
		for j := 0; j < k; j++ {
			want := a.MulVec(column(xb, k, j), nil)
			wantT := a.MulTVec(column(ub, k, j), nil)
			for name, blk := range blocks {
				w := want
				if strings.Contains(name, "TBlock") {
					w = wantT
				}
				for i := range w {
					if math.Float64bits(blk[i*k+j]) != math.Float64bits(w[i]) {
						t.Fatalf("%s(k=%d, workers=%d): entry (%d, %d) = %v, single-vector %v", name, k, workers, i, j, blk[i*k+j], w[i])
					}
				}
			}
		}
	})
}

// column copies column j of the row-major block blk of width k.
func column(blk []float64, k, j int) []float64 {
	col := make([]float64, len(blk)/k)
	for i := range col {
		col[i] = blk[i*k+j]
	}
	return col
}

// diskCSRBytes serializes a through WriteFile, the seed for
// FuzzOpenDiskCSR.
func diskCSRBytes(tb testing.TB, a *CSR) []byte {
	path := filepath.Join(tb.TempDir(), "seed.csr")
	if err := a.WriteFile(path); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzOpenDiskCSR feeds arbitrary bytes to the DiskCSR reader.  It must
// never panic, must reject malformed files with ErrDiskCSRCorrupt only,
// and may allocate no more than a small multiple of the file size plus
// its fixed stream buffers.  A file it accepts must load as a valid CSR
// whose in-memory products match the streamed ones bit for bit.  The
// checked-in corpus in testdata/fuzz/FuzzOpenDiskCSR holds a bad magic,
// a truncated header, a non-monotone rowPtr, an out-of-range colIdx, an
// nnz past the file size, and row counts that overflow the row-pointer
// allocation.
func FuzzOpenDiskCSR(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	_, a := randSparseDense(rng, 5, 4, 0.5)
	f.Add(diskCSRBytes(f, a))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "m.csr")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := OpenDiskCSR(path)
		var m *CSR
		if err == nil {
			m, err = d.Load()
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+32*uint64(len(data)) {
			t.Fatalf("reading a %d-byte file allocated %d bytes", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrDiskCSRCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			if d != nil {
				_ = d.Close() // rejected file: the Load error is the result
			}
			return
		}
		defer d.Close()
		if m.RowPtr[0] != 0 || m.RowPtr[m.Rows] != len(m.ColIdx) || len(m.ColIdx) != len(m.Val) {
			t.Fatalf("accepted inconsistent CSR: rowptr %v, %d cols, %d vals", m.RowPtr, len(m.ColIdx), len(m.Val))
		}
		for i := 0; i < m.Rows; i++ {
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				if c := m.ColIdx[k]; c < 0 || c >= m.Cols || k > m.RowPtr[i] && c <= m.ColIdx[k-1] {
					t.Fatalf("accepted row %d with column %d", i, c)
				}
			}
		}
		if m.Cols > 1<<16 {
			return // a valid but very wide matrix: skip the products
		}
		x, y := make([]float64, m.Cols), make([]float64, m.Rows)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		for i := range y {
			y[i] = float64(i%5) - 2
		}
		got, err := d.MulVec(x, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotT, err := d.MulTVec(y, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wantT := m.MulVec(x, nil), m.MulTVec(y, nil)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("streamed MulVec[%d] = %v, in-memory %v", i, got[i], want[i])
			}
		}
		for j := range wantT {
			if math.Float64bits(gotT[j]) != math.Float64bits(wantT[j]) {
				t.Fatalf("streamed MulTVec[%d] = %v, in-memory %v", j, gotT[j], wantT[j])
			}
		}
	})
}
