package solver

import (
	"math"

	"srda/internal/blas"
	"srda/internal/pool"
)

// LSQRParams configures an LSQR run.  The zero value asks for sensible
// defaults via Defaults.
type LSQRParams struct {
	// Damp is the Tikhonov damping √α: LSQR minimizes
	// ‖A x − b‖² + Damp²‖x‖², matching eq. (14) of the paper with
	// α = Damp².
	Damp float64
	// MaxIter caps the number of iterations.  The paper reports 15–20
	// iterations suffice for its text workloads; Defaults uses 30.
	MaxIter int
	// ATol and BTol are the Paige–Saunders stopping tolerances on the
	// estimated relative residual quantities.  Defaults: 1e-8.
	ATol, BTol float64
}

// Defaults fills in zero fields.
func (p LSQRParams) Defaults() LSQRParams {
	if p.MaxIter <= 0 {
		p.MaxIter = 30
	}
	if p.ATol <= 0 {
		p.ATol = 1e-8
	}
	if p.BTol <= 0 {
		p.BTol = 1e-8
	}
	return p
}

// LSQRResult reports how a solve terminated.
type LSQRResult struct {
	X       []float64 // solution, length n
	Iters   int       // iterations performed
	ResNorm float64   // estimate of ‖[A; damp·I] x − [b; 0]‖
	Reason  string    // human-readable stopping reason
}

// LSQR solves the (damped) least-squares problem
//
//	min ‖A x − b‖² + damp²‖x‖²
//
// using the Golub–Kahan bidiagonalization algorithm of Paige & Saunders
// (ACM TOMS 1982).  It is the one-column case of LockstepLSQR.
func LSQR(op Operator, b []float64, params LSQRParams) LSQRResult {
	r := LockstepLSQR(Blocked(op), 1, b, params)
	return LSQRResult{X: r.X, Iters: r.Iters[0], ResNorm: r.ResNorms[0], Reason: r.Reasons[0]}
}

// LockstepResult reports how each column of a lockstep solve terminated;
// every per-column field is what LSQR reports for that column alone.
type LockstepResult struct {
	// X is the n×k row-major solution block: column j solves rhs j.
	X []float64
	// Iters[j] is the number of iterations column j performed.
	Iters []int
	// ResNorms[j] estimates ‖[A; damp·I] x_j − [b_j; 0]‖.
	ResNorms []float64
	// Reasons[j] is column j's human-readable stopping reason.
	Reasons []string
}

// lsqrCol is one right-hand side's Paige–Saunders scalar state.
type lsqrCol struct {
	alpha, beta           float64 // bidiagonalization norms
	phiBar, rhoBar, bnorm float64 // rotation state and ‖b‖
	anorm, res2, resNorm  float64 // ‖A‖ and residual-norm estimates
	scale                 float64 // 1/α or 1/β, or 1 to leave a zero vector
	t1, t2, tau           float64 // this iteration's x and w coefficients, and s·φ
}

// rotate applies one iteration's plane rotations to the column's scalars:
// the first eliminates the damping parameter, the second the subdiagonal
// of the bidiagonal system.  It leaves the x and w update coefficients in
// t1 and t2 and refreshes the residual-norm estimate.
func (c *lsqrCol) rotate(damp float64) {
	rhoBar1 := c.rhoBar
	psi := 0.0
	if damp > 0 {
		rhoBar1 = math.Hypot(c.rhoBar, damp)
		c1 := c.rhoBar / rhoBar1
		s1 := damp / rhoBar1
		psi = s1 * c.phiBar
		c.phiBar = c1 * c.phiBar
	}
	rho := math.Hypot(rhoBar1, c.beta)
	cs := rhoBar1 / rho
	sn := c.beta / rho
	theta := sn * c.alpha
	c.rhoBar = -cs * c.alpha
	phi := cs * c.phiBar
	c.phiBar = sn * c.phiBar
	c.tau = sn * phi
	c.t1 = phi / rho
	c.t2 = -theta / rho

	// Residual-norm estimates (Paige–Saunders §5): the damping rotations
	// shed a ψ contribution each iteration that belongs to the damped
	// residual ‖[A; damp·I]x − [b; 0]‖.
	c.res2 += psi * psi
	c.resNorm = math.Sqrt(c.phiBar*c.phiBar + c.res2)
}

// colNorms takes the norms of the k columns of the row-major r×k block
// blk, visiting each column's elements in row order as Nrm2 does.
func colNorms(blk []float64, norms []blas.NormAcc) {
	k := len(norms)
	clear(norms)
	for i := 0; i+k <= len(blk); i += k {
		row := blk[i : i+k]
		for j := range norms {
			norms[j].Add(row[j])
		}
	}
}

// scaleCols multiplies column j of the row-major block blk by
// cols[j].scale, as Scal does for one vector.
func scaleCols(blk []float64, cols []lsqrCol) {
	k := len(cols)
	for i := 0; i+k <= len(blk); i += k {
		row := blk[i : i+k]
		for j := range cols {
			row[j] *= cols[j].scale
		}
	}
}

// zeroCol sets column j of the row-major block blk of width k to zero.
func zeroCol(blk []float64, k, j int) {
	for i := j; i < len(blk); i += k {
		blk[i] = 0
	}
}

// LockstepLSQR runs LSQR on the k right-hand sides of the row-major m×k
// block b at once.  Each iteration makes one ApplyBlock and one
// ApplyTBlock over all k columns, so A is streamed twice per iteration
// rather than 2k times, while the k sets of scalar recurrences run side by
// side.  Every column stops at the iteration where LSQR on that column
// alone would stop, and its x, iteration count and residual are frozen
// there: per column, the arithmetic is LSQR's, operation for operation, so
// the result is bitwise k separate LSQR solves.  Each iteration costs
// O(nnz·k) for sparse operators — the paper's O(k·c·m·s) training cost.
//
// A stopped column stays in the blocks with neutral coefficients, and its
// u, v and w are zeroed before the next iteration, so every pass can
// sweep all k columns without a mask.  Its x then only ever gains
// t1·w = +0, which leaves it bitwise unchanged: x never holds −0, since it
// starts at +0 and a round-to-nearest sum is −0 only when both addends
// are.  This relies on op mapping zero to zero, as a linear operator does.
func LockstepLSQR(op BlockOperator, k int, b []float64, params LSQRParams) LockstepResult {
	p := params.Defaults()
	m, n := op.Dims()
	if k < 0 || len(b) != m*k {
		panic("solver: LSQR rhs length mismatch")
	}
	res := LockstepResult{
		X:        make([]float64, n*k),
		Iters:    make([]int, k),
		ResNorms: make([]float64, k),
		Reasons:  make([]string, k),
	}
	if k == 0 {
		return res
	}
	x := res.X
	u := make([]float64, m*k)
	v := make([]float64, n*k)
	w := make([]float64, n*k)
	tmpM := make([]float64, m*k)
	tmpN := make([]float64, n*k)
	cols := make([]lsqrCol, k)
	norms := make([]blas.NormAcc, k)
	done := make([]bool, k)   // column j has stopped
	zeroed := make([]bool, k) // and its u, v and w are zero
	live := k
	stop := func(j int, reason string) {
		cols[j] = lsqrCol{scale: 1}
		done[j] = true
		res.Reasons[j] = reason
		live--
	}

	// β u = b ; α v = Aᵀu.
	copy(u, b)
	colNorms(u, norms)
	for j := range cols {
		c := &cols[j]
		c.beta = norms[j].Norm()
		c.scale = 1
		if c.beta == 0 { //srdalint:ignore floatcmp an exactly zero rhs has the exact solution x = 0
			stop(j, "zero right-hand side")
			continue
		}
		c.scale = 1 / c.beta
	}
	scaleCols(u, cols)
	op.ApplyTBlock(k, u, v)
	colNorms(v, norms)
	for j := range cols {
		c := &cols[j]
		if done[j] {
			continue
		}
		c.alpha = norms[j].Norm()
		if c.alpha == 0 { //srdalint:ignore floatcmp exactly zero Atb makes x = 0 optimal
			stop(j, "Aᵀb = 0: x = 0 is optimal")
			continue
		}
		c.scale = 1 / c.alpha
		c.phiBar, c.rhoBar, c.bnorm = c.beta, c.alpha, c.beta
	}
	scaleCols(v, cols)
	copy(w, v)

	for iter := 1; iter <= p.MaxIter && live > 0; iter++ {
		for j := range cols {
			if done[j] && !zeroed[j] {
				zeroCol(u, k, j)
				zeroCol(v, k, j)
				zeroCol(w, k, j)
				zeroed[j] = true
			}
		}
		// Bidiagonalization step: β u = A v − α u ; α v = Aᵀ u − β v.
		op.ApplyBlock(k, v, tmpM)
		clear(norms)
		for i := 0; i+k <= len(u); i += k {
			ur, tr := u[i:i+k], tmpM[i:i+k]
			for j := range cols {
				ur[j] = tr[j] - cols[j].alpha*ur[j]
				norms[j].Add(ur[j])
			}
		}
		for j := range cols {
			c := &cols[j]
			if done[j] {
				continue
			}
			c.beta = norms[j].Norm()
			c.scale = 1
			if c.beta > 0 {
				c.scale = 1 / c.beta
			}
			c.anorm = math.Sqrt(c.anorm*c.anorm + c.alpha*c.alpha + c.beta*c.beta + p.Damp*p.Damp)
		}
		scaleCols(u, cols)

		op.ApplyTBlock(k, u, tmpN)
		clear(norms)
		for i := 0; i+k <= len(v); i += k {
			vr, tr := v[i:i+k], tmpN[i:i+k]
			for j := range cols {
				vr[j] = tr[j] - cols[j].beta*vr[j]
				norms[j].Add(vr[j])
			}
		}
		for j := range cols {
			c := &cols[j]
			if done[j] {
				continue
			}
			c.alpha = norms[j].Norm()
			c.scale = 1
			if c.alpha > 0 {
				c.scale = 1 / c.alpha
			}
			c.rotate(p.Damp)
		}

		// v /= α, then update x and the search direction w, taking ‖x‖
		// for the stopping test in the same pass.
		clear(norms)
		for i := 0; i+k <= len(x); i += k {
			vr, xr, wr := v[i:i+k], x[i:i+k], w[i:i+k]
			for j := range cols {
				c := &cols[j]
				vr[j] *= c.scale
				xr[j] += c.t1 * wr[j]
				wr[j] = vr[j] + c.t2*wr[j]
				norms[j].Add(xr[j])
			}
		}

		for j := range cols {
			c := &cols[j]
			if done[j] {
				continue
			}
			// ‖Āᵀr̄‖ estimate for the damped system.
			arNorm := c.alpha * math.Abs(c.tau)
			var reason string
			switch {
			case c.resNorm <= p.BTol*c.bnorm+p.ATol*c.anorm*norms[j].Norm():
				reason = "residual small: ‖r‖ <= btol·‖b‖ + atol·‖A‖·‖x‖"
			case arNorm <= p.ATol*c.anorm*c.resNorm:
				reason = "normal-equations residual small"
			case iter == p.MaxIter:
				reason = "iteration limit reached"
			default:
				continue
			}
			res.Iters[j], res.ResNorms[j] = iter, c.resNorm
			stop(j, reason)
		}
	}
	return res
}

// ParLockstepLSQR is LockstepLSQR spread over the worker pool: the k
// columns of the row-major m×k block b are split into at most workers
// contiguous groups (<= 0 means GOMAXPROCS), and each group is one
// lockstep solve on one worker.  The solve forks and joins once, rather than
// at every block product, and each worker runs its group's vector updates
// as well as its products.  Columns are independent, so every column is
// bitwise what LockstepLSQR, and LSQR on that column alone, gives for any
// workers.  With more than one group every worker already has a group, so
// the groups' dense and sparse products run sequentially, and the groups
// call op concurrently, which Operator implementations must allow (they
// treat x as read-only and write only dst).  A single group is
// LockstepLSQR over Blocked(op), whose products shard as op's do.
func ParLockstepLSQR(workers int, op Operator, k int, b []float64, params LSQRParams) LockstepResult {
	m, n := op.Dims()
	if k < 0 || len(b) != m*k {
		panic("solver: LSQR rhs length mismatch")
	}
	groups := workers
	if groups <= 0 {
		groups = pool.Shared().Size()
	}
	if groups >= k {
		groups = k
	}
	if groups <= 1 {
		return LockstepLSQR(Blocked(op), k, b, params)
	}
	res := LockstepResult{
		X:        make([]float64, n*k),
		Iters:    make([]int, k),
		ResNorms: make([]float64, k),
		Reasons:  make([]string, k),
	}
	op = sequential(op)
	pool.Do(groups, k, func(lo, hi int) {
		w := hi - lo
		bg := make([]float64, m*w)
		for i := 0; i < m; i++ {
			copy(bg[i*w:i*w+w], b[i*k+lo:i*k+hi])
		}
		r := LockstepLSQR(Blocked(op), w, bg, params)
		for i := 0; i < n; i++ {
			copy(res.X[i*k+lo:i*k+hi], r.X[i*w:i*w+w])
		}
		copy(res.Iters[lo:hi], r.Iters)
		copy(res.ResNorms[lo:hi], r.ResNorms)
		copy(res.Reasons[lo:hi], r.Reasons)
	})
	return res
}

// CGNE solves the regularized normal equations (AᵀA + α·I) x = Aᵀ b with
// the conjugate gradient method.  It serves as an independent check on
// LSQR (mathematically both solve the same ridge problem; LSQR is more
// numerically stable) and as an ablation point in the benchmarks.
func CGNE(op Operator, b []float64, alpha float64, maxIter int, tol float64) LSQRResult {
	m, n := op.Dims()
	if len(b) != m {
		panic("solver: CGNE rhs length mismatch")
	}
	if maxIter <= 0 {
		maxIter = 2 * n
	}
	if tol <= 0 {
		tol = 1e-10
	}
	x := make([]float64, n)
	// r = Aᵀb − (AᵀA + αI)x = Aᵀb at x=0.
	r := op.ApplyT(b, nil)
	pvec := make([]float64, n)
	copy(pvec, r)
	tmpM := make([]float64, m)
	ap := make([]float64, n)
	rs := blas.Dot(r, r)
	rs0 := rs
	iters := 0
	for it := 0; it < maxIter && rs > tol*tol*rs0; it++ {
		iters = it + 1
		op.Apply(pvec, tmpM)
		op.ApplyT(tmpM, ap)
		if alpha != 0 { //srdalint:ignore floatcmp alpha is exactly zero only at bidiagonalization breakdown
			blas.Axpy(alpha, pvec, ap)
		}
		den := blas.Dot(pvec, ap)
		if den <= 0 {
			break
		}
		step := rs / den
		blas.Axpy(step, pvec, x)
		blas.Axpy(-step, ap, r)
		rsNew := blas.Dot(r, r)
		beta := rsNew / rs
		rs = rsNew
		for i := range pvec {
			pvec[i] = r[i] + beta*pvec[i]
		}
	}
	res := op.Apply(x, nil)
	blas.Axpy(-1, b, res)
	return LSQRResult{X: x, Iters: iters, ResNorm: blas.Nrm2(res), Reason: "cgne"}
}
