package flam

import "testing"

func TestTValue(t *testing.T) {
	if (Problem{M: 10, N: 5}).T() != 5 {
		t.Fatal("t should be min")
	}
	if (Problem{M: 3, N: 9}).T() != 3 {
		t.Fatal("t should be min")
	}
}

func TestSRDAFasterThanLDAAcrossShapes(t *testing.T) {
	// The paper's headline: SRDA (normal equations) is always faster.
	shapes := []Problem{
		{M: 680, N: 1024, C: 68, K: 20, S: 1024},
		{M: 3120, N: 617, C: 26, K: 20, S: 617},
		{M: 2000, N: 784, C: 10, K: 20, S: 784},
		{M: 9470, N: 26214, C: 20, K: 15, S: 80},
		{M: 100, N: 100, C: 2, K: 20, S: 100},
		{M: 100000, N: 50, C: 5, K: 20, S: 50},
	}
	for _, p := range shapes {
		if sp := Speedup(p); sp <= 1 {
			t.Fatalf("shape %+v: speedup %v <= 1", p, sp)
		}
	}
}

func TestMaxSpeedupNearNine(t *testing.T) {
	// At m = n >> c the paper reports the maximum speedup ≈ 9.
	p := Problem{M: 100000, N: 100000, C: 10, K: 20, S: 100000}
	sp := Speedup(p)
	if sp < 7 || sp > 11 {
		t.Fatalf("speedup at m=n is %v, expected ≈9", sp)
	}
}

func TestSparseLSQRLinearInSize(t *testing.T) {
	// Doubling m must double the sparse-LSQR flam count (linear time).
	base := Problem{M: 10000, N: 26214, C: 20, K: 15, S: 80}
	double := base
	double.M *= 2
	f1, f2 := SRDALSQRSparse(base).Flam, SRDALSQRSparse(double).Flam
	ratio := f2 / f1
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("m-scaling ratio %v not ≈2", ratio)
	}
	// LDA, by contrast, scales worse than linearly in t.
	l1, l2 := LDA(base).Flam, LDA(double).Flam
	if l2/l1 < 2.5 {
		t.Fatalf("LDA scaling %v should be superlinear here", l2/l1)
	}
}

func TestSparseMemoryFarBelowDense(t *testing.T) {
	// The 20News shape: dense LDA memory must exceed sparse SRDA's by
	// orders of magnitude (the paper's 2 GB wall).
	p := Problem{M: 9470, N: 26214, C: 20, K: 15, S: 80}
	ldaMem := LDA(p).Bytes()
	srdaMem := SRDALSQRSparse(p).Bytes()
	if ldaMem < 100*srdaMem {
		t.Fatalf("LDA %v bytes vs sparse SRDA %v bytes: expected >100x gap", ldaMem, srdaMem)
	}
	if ldaMem < 2e9 {
		t.Fatalf("LDA on the 20News shape should exceed 2GB, got %v", ldaMem)
	}
}

func TestTableHasAllRows(t *testing.T) {
	p := Problem{M: 100, N: 50, C: 4, K: 10, S: 20}
	rows := Table(p)
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Algorithm] = true
		if r.Flam <= 0 || r.MemWords <= 0 {
			t.Fatalf("non-positive counts for %s", r.Algorithm)
		}
	}
	for _, want := range []string{"LDA", "SRDA (normal equations)", "SRDA (LSQR, sparse)", "IDR/QR"} {
		if !seen[want] {
			t.Fatalf("missing row %q", want)
		}
	}
}

func TestIDRQRCheapestOnPaperShapes(t *testing.T) {
	// Table IV/VI/VIII show IDR/QR training fastest; the model must agree
	// on the dense shapes.
	for _, p := range []Problem{
		{M: 680, N: 1024, C: 68, K: 20, S: 1024},
		{M: 2860, N: 617, C: 26, K: 20, S: 617},
	} {
		idr := IDRQR(p).Flam
		if idr >= SRDANormal(p).Flam || idr >= LDA(p).Flam {
			t.Fatalf("IDR/QR not cheapest for %+v", p)
		}
	}
}
