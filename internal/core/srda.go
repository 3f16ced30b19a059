package core

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"

	"srda/internal/blas"
	"srda/internal/classify"
	"srda/internal/mat"
	"srda/internal/obs"
	"srda/internal/pool"
	"srda/internal/regress"
	"srda/internal/solver"
	"srda/internal/sparse"
)

// Options configures SRDA training.
type Options struct {
	// Alpha is the ridge penalty α of eq. (14).  The paper uses α = 1 in
	// its experiments; 0 recovers plain least squares (and, by Corollary
	// 3, exact LDA when the samples are linearly independent).
	Alpha float64
	// Strategy selects the regression solver.  Auto matches the paper's
	// protocol: closed-form normal equations for dense data (primal or
	// dual by shape), LSQR for sparse data.
	Strategy regress.Strategy
	// LSQRIter caps LSQR iterations per response (default 30; the paper
	// sets 15 for 20Newsgroups).
	LSQRIter int
	// Workers bounds all parallelism in the fit: the column groups of
	// the lockstep solve on the LSQR path and the worker-pool sharding
	// inside every dense/sparse kernel (0 = GOMAXPROCS, 1 = sequential).
	// Every setting produces a bitwise-identical model; the trained
	// Model inherits the value for its batch-projection kernels.
	Workers int
	// Span, when non-nil, is the parent of the fit's per-phase timing
	// spans: "responses" for response generation plus the regress-layer
	// phases (see regress.Options.Span).  Training itself never reads a
	// clock; timing lives entirely in the caller's tracer.
	Span *obs.ReqSpan
}

// Model is a trained SRDA transformer: samples are embedded into the
// (c−1)-dimensional discriminant subspace by x ↦ Wᵀx + b.
type Model struct {
	// W is the n×(c−1) projection matrix.
	W *mat.Dense
	// B holds the c−1 intercepts (the paper's absorbed bias terms).
	B []float64
	// NumClasses is c.
	NumClasses int
	// Alpha records the penalty used at training time.
	Alpha float64
	// Iters is the total LSQR iteration count (0 for direct solves).
	Iters int
	// Strategy records which solver actually ran.
	Strategy regress.Strategy
	// Centroids optionally holds the embedded class means of the training
	// data (c×(c−1)), set by SetCentroids; with them the model is a
	// self-contained nearest-centroid classifier (see PredictBatch).
	Centroids *mat.Dense

	// Workers bounds the worker-pool sharding of the batch projection
	// kernels (0 = GOMAXPROCS, 1 = sequential).  Purely a runtime knob —
	// outputs are bitwise identical at every setting — so it is not
	// serialized; loaded models default to 0.
	Workers int

	// Stats carries the solver telemetry of the fit (per-response LSQR
	// iteration counts and residual norms).  Advisory only: it never
	// affects predictions and, like Workers, is not serialized — loaded
	// models carry a zero Stats.
	Stats regress.Stats

	// wt lazily caches Wᵀ for the batched projection path (safe for
	// concurrent readers).  Code that mutates W in place after the first
	// batch call must invalidate it via InvalidateCache.
	wt atomic.Pointer[mat.Dense]
}

// projT returns a cached transposed copy of W, building it on first use.
// The transposed layout is what lets ProjectBatch run through the
// unit-stride dot-product GEMM kernel.
func (m *Model) projT() *mat.Dense {
	if wt := m.wt.Load(); wt != nil && wt.Rows == m.W.Cols && wt.Cols == m.W.Rows {
		return wt
	}
	wt := mat.NewDense(m.W.Cols, m.W.Rows)
	// j-outer order: reads walk W nearly sequentially, writes are
	// unit-stride — much kinder to the cache than a row-outer transpose.
	for j := 0; j < m.W.Cols; j++ {
		row := wt.RowView(j)
		for i := 0; i < m.W.Rows; i++ {
			row[i] = m.W.Data[i*m.W.Stride+j]
		}
	}
	m.wt.Store(wt)
	return wt
}

// InvalidateCache drops derived caches; call it after mutating W in
// place.  (Replacing the whole Model, the serving layer's hot-reload
// unit, never needs this.)
func (m *Model) InvalidateCache() { m.wt.Store(nil) }

// SetCentroids computes and stores the embedded class means from a
// training embedding, turning the model into a standalone classifier.
func (m *Model) SetCentroids(emb *mat.Dense, labels []int) error {
	if emb.Cols != m.Dim() {
		return fmt.Errorf("core: embedding has %d dims, model %d", emb.Cols, m.Dim())
	}
	nc, err := classify.FitNearestCentroid(emb, labels, m.NumClasses)
	if err != nil {
		return err
	}
	m.Centroids = nc.Centroids
	return nil
}

// PredictVec classifies one raw sample by nearest stored centroid in the
// embedded space; it panics when SetCentroids has not been called.
func (m *Model) PredictVec(x []float64) int {
	if m.Centroids == nil {
		panic("core: PredictVec requires SetCentroids")
	}
	nc := classify.NearestCentroid{Centroids: m.Centroids}
	return nc.PredictVec(m.TransformVec(x, nil))
}

// PredictDense classifies each row of x by nearest stored centroid; it
// is PredictBatch.
func (m *Model) PredictDense(x *mat.Dense) []int { return m.PredictBatch(x) }

// PredictSparse classifies each CSR row by nearest stored centroid; it
// is PredictBatchCSR.
func (m *Model) PredictSparse(x *sparse.CSR) []int { return m.PredictBatchCSR(x) }

// PredictBatch classifies every row of x in one shot: the projection is a
// single GEMM (ProjectBatch) and the nearest-centroid assignment is a
// second GEMM against the centroid matrix, so per-sample dispatch overhead
// is fully amortized.  It is the path the serving layer's micro-batcher
// runs.
func (m *Model) PredictBatch(x *mat.Dense) []int {
	return m.PredictBatchCtx(context.Background(), x)
}

// PredictBatchCtx is PredictBatch under request-scoped tracing: when ctx
// carries an active span (obs.StartSpan), the projection GEMM and the
// centroid assignment are recorded as its "core.gemm" and
// "core.classify" children.  Cancellation is deliberately not consulted
// — a batch that has reached the kernels runs to completion.
func (m *Model) PredictBatchCtx(ctx context.Context, x *mat.Dense) []int {
	if m.Centroids == nil {
		panic("core: PredictBatch requires SetCentroids")
	}
	emb := m.ProjectBatchCtx(ctx, x, nil)
	_, sp := obs.StartSpan(ctx, "core.classify")
	out := m.classifyBatch(emb)
	sp.End()
	return out
}

// PredictBatchCSR classifies every CSR row with the batched
// nearest-centroid assignment; the projection stays O(nnz).
func (m *Model) PredictBatchCSR(x *sparse.CSR) []int {
	return m.PredictBatchCSRCtx(context.Background(), x)
}

// PredictBatchCSRCtx is PredictBatchCSR under request-scoped tracing,
// with "core.project_csr" and "core.classify" child spans.
func (m *Model) PredictBatchCSRCtx(ctx context.Context, x *sparse.CSR) []int {
	if m.Centroids == nil {
		panic("core: PredictBatchCSR requires SetCentroids")
	}
	emb := m.ProjectBatchCSRCtx(ctx, x, nil)
	_, sp := obs.StartSpan(ctx, "core.classify")
	out := m.classifyBatch(emb)
	sp.End()
	return out
}

func (m *Model) classifyBatch(emb *mat.Dense) []int {
	nc := classify.NearestCentroid{Centroids: m.Centroids}
	return nc.PredictBatch(emb)
}

// FitDense trains SRDA on a dense m×n design matrix with labels in
// [0, numClasses).
//
// Fits that resolve to the Primal strategy run through the
// sufficient-statistics bridge (FitStats): the Gram matrix via
// mat.ParGram, X̃ᵀY collapsed to classSumsᵀ·V, and stats-based class
// centroids — bitwise identical to a streaming pass over the same rows,
// which is the online trainer's equivalence contract.  Dual and LSQR
// fits keep the regress-layer path (and, like before, carry no
// centroids until SetCentroids).
func FitDense(x *mat.Dense, labels []int, numClasses int, opt Options) (*Model, error) {
	if x.Rows != len(labels) {
		return nil, fmt.Errorf("core: %d samples but %d labels", x.Rows, len(labels))
	}
	if opt.Strategy.Resolve(x.Rows, x.Cols) == regress.Primal {
		return fitDensePrimalStats(x, labels, numClasses, opt)
	}
	sp := opt.Span.StartChild("responses")
	rt, err := GenerateResponses(labels, numClasses)
	if err != nil {
		sp.End()
		return nil, err
	}
	y := rt.Materialize(labels)
	sp.End()
	rm, err := regress.FitDense(x, y, regress.Options{
		Alpha:     opt.Alpha,
		Strategy:  opt.Strategy,
		Intercept: true,
		LSQRIter:  opt.LSQRIter,
		Workers:   opt.Workers,
		Span:      opt.Span,
	})
	if err != nil {
		return nil, err
	}
	return fromRegress(rm, numClasses, opt.Alpha, opt.Workers), nil
}

// FitSparse trains SRDA on a CSR design matrix using the linear-time LSQR
// path with the intercept-absorption trick, never densifying the data.
func FitSparse(x *sparse.CSR, labels []int, numClasses int, opt Options) (*Model, error) {
	return FitOperator(solver.SparseOp{A: x, Workers: opt.Workers}, labels, numClasses, opt)
}

// FitOperator trains SRDA through an abstract operator (LSQR only); this
// is the fully matrix-free path that even supports out-of-core operators.
func FitOperator(op solver.Operator, labels []int, numClasses int, opt Options) (*Model, error) {
	m, _ := op.Dims()
	if m != len(labels) {
		return nil, fmt.Errorf("core: %d samples but %d labels", m, len(labels))
	}
	sp := opt.Span.StartChild("responses")
	rt, err := GenerateResponses(labels, numClasses)
	if err != nil {
		sp.End()
		return nil, err
	}
	y := rt.Materialize(labels)
	sp.End()
	rm, err := regress.FitOperator(op, y, regress.Options{
		Alpha:     opt.Alpha,
		Intercept: true,
		LSQRIter:  opt.LSQRIter,
		Workers:   opt.Workers,
		Span:      opt.Span,
	})
	if err != nil {
		return nil, err
	}
	return fromRegress(rm, numClasses, opt.Alpha, opt.Workers), nil
}

// fromRegress wraps a regression fit as a Model; every fit that goes
// through the regress layer builds its model here.
func fromRegress(rm *regress.Model, numClasses int, alpha float64, workers int) *Model {
	return &Model{
		W:          rm.W,
		B:          rm.B,
		NumClasses: numClasses,
		Alpha:      alpha,
		Iters:      rm.Iters,
		Strategy:   rm.Strategy,
		Workers:    workers,
		Stats:      rm.Stats,
	}
}

// Dim returns the embedding dimensionality c−1.
func (m *Model) Dim() int { return m.W.Cols }

// TransformDense embeds the rows of x into the discriminant subspace; it
// is ProjectBatch into a fresh matrix.
func (m *Model) TransformDense(x *mat.Dense) *mat.Dense { return m.ProjectBatch(x, nil) }

// TransformSparse embeds CSR rows without densifying them; it is
// ProjectBatchCSR into a fresh matrix.
func (m *Model) TransformSparse(x *sparse.CSR) *mat.Dense { return m.ProjectBatchCSR(x, nil) }

// projMinWork is the nnz·(c−1) volume below which the sparse projection
// paths skip the worker pool, matching the kernel thresholds elsewhere.
const projMinWork = 1 << 14

// shardRows runs fn over the row range of x, parallel when the volume
// justifies it; ctx carries tracing into the pool, so a traced request
// records the "pool.do" dispatch span.
func (m *Model) shardRows(ctx context.Context, x *sparse.CSR, fn func(lo, hi int)) {
	if m.Workers == 1 || x.Rows < 2 || x.NNZ()*m.Dim() < projMinWork {
		fn(0, x.Rows)
		return
	}
	pool.DoCtx(ctx, m.Workers, x.Rows, fn)
}

// ProjectBatch embeds the rows of x with one GEMM into dst, which is
// allocated (or reallocated on shape mismatch) when unsuitable and
// returned.  Passing a dst lets hot loops — the serving dispatcher in
// particular — reuse one output buffer across batches instead of
// allocating per call.
//
// W is tall and skinny (n×(c−1) with c−1 small), so the product is
// computed as X·(Wᵀ)ᵀ through the dot-product GEMM kernel: the c−1 rows
// of Wᵀ stay cache-resident across the whole batch and every inner loop
// is a unit-stride length-n dot, where the per-row GemvT path re-streams
// all of W per sample through (c−1)-wide strided updates.  That is the
// lowering that makes batching ≥2× faster than per-row prediction.
func (m *Model) ProjectBatch(x *mat.Dense, dst *mat.Dense) *mat.Dense {
	return m.ProjectBatchCtx(context.Background(), x, dst)
}

// ProjectBatchCtx is ProjectBatch recording the GEMM as a "core.gemm"
// child span when ctx carries one (obs.StartSpan); the numerics are
// identical.
func (m *Model) ProjectBatchCtx(ctx context.Context, x *mat.Dense, dst *mat.Dense) *mat.Dense {
	if x.Cols != m.W.Rows {
		panic(fmt.Sprintf("core: ProjectBatch feature mismatch: data has %d, model %d", x.Cols, m.W.Rows))
	}
	dst = m.batchDst(x.Rows, dst)
	wt := m.projT()
	_, sp := obs.StartSpan(ctx, "core.gemm")
	blas.ParGemmTB(m.Workers, x.Rows, m.Dim(), x.Cols, 1, x.Data, x.Stride, wt.Data, wt.Stride, 0, dst.Data, dst.Stride)
	m.addBias(dst)
	sp.End()
	return dst
}

// ProjectBatchCSR embeds CSR rows into dst (reused like ProjectBatch)
// without densifying them; cost stays O(nnz · (c−1)).
func (m *Model) ProjectBatchCSR(x *sparse.CSR, dst *mat.Dense) *mat.Dense {
	return m.ProjectBatchCSRCtx(context.Background(), x, dst)
}

// ProjectBatchCSRCtx is ProjectBatchCSR under request-scoped tracing:
// the sparse projection records as a "core.project_csr" child span, and
// a pool dispatch below it as "pool.do".
func (m *Model) ProjectBatchCSRCtx(ctx context.Context, x *sparse.CSR, dst *mat.Dense) *mat.Dense {
	if x.Cols != m.W.Rows {
		panic(fmt.Sprintf("core: ProjectBatchCSR feature mismatch: data has %d, model %d", x.Cols, m.W.Rows))
	}
	dst = m.batchDst(x.Rows, dst)
	spCtx, sp := obs.StartSpan(ctx, "core.project_csr")
	m.shardRows(spCtx, x, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := dst.RowView(i)
			copy(row, m.B)
			cols, vals := x.Row(i)
			for t, j := range cols {
				blas.Axpy(vals[t], m.W.RowView(j), row)
			}
		}
	})
	sp.End()
	return dst
}

func (m *Model) batchDst(rows int, dst *mat.Dense) *mat.Dense {
	if dst == nil || dst.Rows != rows || dst.Cols != m.Dim() {
		return mat.NewDense(rows, m.Dim())
	}
	return dst
}

// TransformVec embeds a single dense sample.
func (m *Model) TransformVec(x []float64, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.Dim())
	}
	m.W.MulTVec(x, dst)
	for d := range dst {
		dst[d] += m.B[d]
	}
	return dst
}

func (m *Model) addBias(out *mat.Dense) {
	for i := 0; i < out.Rows; i++ {
		row := out.RowView(i)
		for j := range row {
			row[j] += m.B[j]
		}
	}
}

// modelWire is the gob-encoded persistent form of a Model.
type modelWire struct {
	Rows, Cols int
	W          []float64
	B          []float64
	NumClasses int
	Alpha      float64
	Centroids  []float64 // c×Cols row-major, empty when unset
}

// Save serializes the model with encoding/gob.
func (m *Model) Save(w io.Writer) error {
	wire := modelWire{
		Rows: m.W.Rows, Cols: m.W.Cols,
		W: m.W.Clone().Data, B: m.B,
		NumClasses: m.NumClasses, Alpha: m.Alpha,
	}
	if m.Centroids != nil {
		wire.Centroids = m.Centroids.Clone().Data
	}
	return gob.NewEncoder(w).Encode(wire)
}

// SaveFile atomically persists the model to path: the bytes are written
// to a temporary file in the same directory, synced, and renamed into
// place.  A crash mid-save therefore never leaves a truncated model where
// a reader — in particular srdaserve's hot-reload watcher — could pick it
// up.
func (m *Model) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	cleanup := func() {
		// Failure path: the write error is the one to report.
		_ = tmp.Close()
		_ = os.Remove(tmpPath)
	}
	if err := m.Save(tmp); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpPath) // failure path: the close error is the one to report
		return err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		_ = os.Remove(tmpPath) // failure path: the rename error is the one to report
		return err
	}
	return nil
}

// LoadFile reads a model previously written by SaveFile (or Save).
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only; nothing to flush
	return Load(f)
}

// Errors Load returns for a stream that decodes but cannot be a model;
// test them with errors.Is.
var (
	// ErrModelCorrupt: a stored slice disagrees with the stored shape.
	ErrModelCorrupt = errors.New("core: corrupt model")
	// ErrModelShape: a dimension of W or the centroid matrix is not positive.
	ErrModelShape = errors.New("core: model has a non-positive dimension")
	// ErrModelSize: a dimension product overflows int.
	ErrModelSize = errors.New("core: model dimensions overflow")
	// ErrModelNonFinite: W, B or a centroid holds a NaN or ±Inf.
	ErrModelNonFinite = errors.New("core: model holds a non-finite value")
)

// Load deserializes a model written by Save.  Beyond the gob decoding it
// rejects shapes no fit produces and non-finite parameters, which would
// otherwise surface later as out-of-range predictions.
func Load(r io.Reader) (*Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if err := checkShape(wire.Rows, wire.Cols, len(wire.W)); err != nil {
		return nil, fmt.Errorf("%w: %d values for %dx%d W", err, len(wire.W), wire.Rows, wire.Cols)
	}
	if len(wire.B) != wire.Cols {
		return nil, fmt.Errorf("%w: %d biases for %d responses", ErrModelCorrupt, len(wire.B), wire.Cols)
	}
	if !allFinite(wire.W) || !allFinite(wire.B) || !allFinite(wire.Centroids) {
		return nil, ErrModelNonFinite
	}
	model := &Model{
		W:          mat.NewDenseData(wire.Rows, wire.Cols, wire.W),
		B:          wire.B,
		NumClasses: wire.NumClasses,
		Alpha:      wire.Alpha,
	}
	if len(wire.Centroids) > 0 {
		if err := checkShape(wire.NumClasses, wire.Cols, len(wire.Centroids)); err != nil {
			return nil, fmt.Errorf("%w: %d centroid values for %dx%d", err, len(wire.Centroids), wire.NumClasses, wire.Cols)
		}
		model.Centroids = mat.NewDenseData(wire.NumClasses, wire.Cols, wire.Centroids)
	}
	return model, nil
}

// checkShape validates a rows×cols matrix stored as n values in a model
// file, testing the product only once it cannot overflow.
func checkShape(rows, cols, n int) error {
	switch {
	case rows <= 0 || cols <= 0:
		return ErrModelShape
	case rows > math.MaxInt/cols:
		return ErrModelSize
	case n != rows*cols:
		return ErrModelCorrupt
	}
	return nil
}

// allFinite reports whether v holds no NaN or ±Inf.
func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
