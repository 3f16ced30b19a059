// Package flam implements the paper's operation-count model (Table I).
// A "flam" (Stewart 1998) is a compound floating-point operation of one
// addition and one multiplication; the paper states LDA's and SRDA's
// training costs in flams together with their memory footprints.  The
// functions here evaluate those closed-form counts for arbitrary problem
// shapes, power both the Table I reproduction and the experiment
// harness's memory-wall modeling.
package flam

// Problem describes an experiment shape in the paper's notation.
type Problem struct {
	M int     // number of training samples
	N int     // number of features
	C int     // number of classes
	K int     // LSQR iteration count
	S float64 // average nonzeros per sample (= N when dense)
}

// T returns min(m, n), the paper's t.
func (p Problem) T() int {
	if p.M < p.N {
		return p.M
	}
	return p.N
}

// Count holds the dominant flam count and memory requirement (in float64
// words) for one algorithm on one problem.
type Count struct {
	Algorithm string
	Flam      float64
	MemWords  float64
}

// Bytes returns the memory requirement in bytes (8 bytes per word).
func (c Count) Bytes() float64 { return 8 * c.MemWords }

// LDA evaluates the classical-LDA row of Table I:
// time 3/2·m·n·t + 9/2·t³, memory m·n + m·t + n·t.
func LDA(p Problem) Count {
	m, n, t := float64(p.M), float64(p.N), float64(p.T())
	return Count{
		Algorithm: "LDA",
		Flam:      1.5*m*n*t + 4.5*t*t*t,
		MemWords:  m*n + m*t + n*t,
	}
}

// SRDANormal evaluates the SRDA-by-normal-equations row:
// time m·n·t/2 + n·t²/2... the paper simplifies to (mnt + t³/3) + c·m·n;
// memory m·n + n² (Gram matrix) when n <= m, m·n + m² otherwise.
func SRDANormal(p Problem) Count {
	m, n, c := float64(p.M), float64(p.N), float64(p.C)
	t := float64(p.T())
	var flam float64
	if p.N <= p.M {
		// XᵀX (mn²/2), Cholesky (n³/6), c solves (cn²) and XᵀY (cmn)
		flam = 0.5*m*n*n + n*n*n/6 + c*(m*n+n*n)
	} else {
		// dual: XXᵀ (nm²/2), Cholesky (m³/6), c solves + map-back
		flam = 0.5*n*m*m + m*m*m/6 + c*(m*n+m*m)
	}
	return Count{
		Algorithm: "SRDA (normal equations)",
		Flam:      flam,
		MemWords:  m*n + t*t,
	}
}

// SRDALSQRDense evaluates the iterative row for dense data:
// time k·c·(2mn + 3m + 5n), memory m·n + 2n + m + c·n.
func SRDALSQRDense(p Problem) Count {
	m, n, c, k := float64(p.M), float64(p.N), float64(p.C), float64(p.K)
	return Count{
		Algorithm: "SRDA (LSQR, dense)",
		Flam:      k * c * (2*m*n + 3*m + 5*n),
		MemWords:  m*n + 2*n + m + c*n,
	}
}

// SRDALSQRSparse evaluates the iterative row for sparse data:
// time k·c·(2ms + 3m + 5n), memory m·s + (2+c)·n + m.
func SRDALSQRSparse(p Problem) Count {
	m, n, c, k, s := float64(p.M), float64(p.N), float64(p.C), float64(p.K), p.S
	return Count{
		Algorithm: "SRDA (LSQR, sparse)",
		Flam:      k * c * (2*m*s + 3*m + 5*n),
		MemWords:  m*s + (2+c)*n + m,
	}
}

// IDRQR evaluates the IDR/QR baseline: QR of the n×c centroid matrix
// (≈ 2nc²) plus the projections (≈ 2mnc) and a c×c eigensolve.
func IDRQR(p Problem) Count {
	m, n, c := float64(p.M), float64(p.N), float64(p.C)
	return Count{
		Algorithm: "IDR/QR",
		Flam:      2*n*c*c + 2*m*n*c + 9*c*c*c,
		MemWords:  m*n + n*c,
	}
}

// Speedup returns the LDA/SRDA flam ratio for the problem, using the
// normal-equations SRDA variant (the paper derives a maximum of 27/4 + 2
// ≈ 9 at m = n >> c).
func Speedup(p Problem) float64 {
	s := SRDANormal(p).Flam
	if s == 0 { //srdalint:ignore floatcmp exact zero flam count is the degenerate empty problem
		return 0
	}
	return LDA(p).Flam / s
}

// Table returns all Table I rows for a problem.
func Table(p Problem) []Count {
	return []Count{LDA(p), SRDANormal(p), SRDALSQRDense(p), SRDALSQRSparse(p), IDRQR(p)}
}
