package srda

import (
	"io"

	"srda/internal/core"
	"srda/internal/mat"
	"srda/internal/obs"
	"srda/internal/regress"
	"srda/internal/solver"
	"srda/internal/sparse"
)

// Dense is a row-major dense matrix; rows are samples.
type Dense = mat.Dense

// CSR is a compressed-sparse-row matrix; rows are samples.
type CSR = sparse.CSR

// CSRBuilder accumulates (row, col, value) triplets into a CSR matrix.
type CSRBuilder = sparse.Builder

// NewDense allocates a zeroed rows×cols dense matrix.
func NewDense(rows, cols int) *Dense { return mat.NewDense(rows, cols) }

// NewDenseData wraps a row-major slice (length rows*cols) without copying.
func NewDenseData(rows, cols int, data []float64) *Dense {
	return mat.NewDenseData(rows, cols, data)
}

// FromRows builds a dense matrix whose rows copy the given equal-length
// slices.
func FromRows(rows [][]float64) *Dense { return mat.FromRows(rows) }

// NewCSRBuilder creates a builder for a rows×cols sparse matrix.
func NewCSRBuilder(rows, cols int) *CSRBuilder { return sparse.NewBuilder(rows, cols) }

// Solver selects how SRDA's ridge regressions are solved.
type Solver = regress.Strategy

// Solver choices.  Auto follows the paper's protocol: the closed-form
// normal equations (primal for n ≤ m, dual for n > m) on dense data and
// LSQR on sparse data.
const (
	SolverAuto   Solver = regress.Auto
	SolverPrimal Solver = regress.Primal
	SolverDual   Solver = regress.Dual
	SolverLSQR   Solver = regress.IterLSQR
)

// Options configures SRDA training.
type Options struct {
	// Alpha is the Tikhonov/ridge penalty α of the paper's eq. (14).
	// The paper's experiments use 1.  With α→0 and linearly independent
	// samples the solution coincides with classical LDA (Corollary 3).
	Alpha float64
	// Solver picks the regression strategy; SolverAuto when zero.
	Solver Solver
	// LSQRIter caps LSQR iterations per response (default 30; the paper
	// finds 15–20 sufficient).
	LSQRIter int
	// Workers bounds all training parallelism: the worker-pool sharding
	// inside the dense/sparse kernels of every solver, and on the LSQR
	// path the column groups of responses, one lockstep solve per worker
	// (0 = all CPUs, 1 = fully sequential).  Any setting yields a bitwise-identical model — the
	// kernels shard only over independent output rows (see
	// internal/pool) — so Workers is purely a speed knob.  The trained
	// model reuses the value for its batch projection kernels.
	Workers int
	// Whiten post-scales the model so the training embedding's
	// within-class scatter is (shrinkage-regularized) identity, making
	// Euclidean distances in the embedding behave like the within-class
	// Mahalanobis metric.  Recommended (and used by the experiment
	// harness) whenever the embedding feeds a distance-based classifier;
	// leave false to get the paper's raw regression directions.
	Whiten bool
	// Span, when non-nil, is the parent under which the fit records one
	// child span per stage ("responses", then the solver stages —
	// "gram"/"xty"/"cholesky"/"solve" for the direct paths or "lsqr" for
	// the iterative one — and "whiten" when enabled).  Training code never
	// reads the clock itself; all timing flows through the tracer that
	// owns the span.  Create a Tracer with NewTracer, open a root with
	// Tracer.StartRoot, and read the stages back from Tracer.Snapshot as
	// the records whose Parent is the root's SpanID.
	Span *Span
}

// Tracer records request-scoped span trees in a fixed-size ring; the
// serving tier and the online trainer share it.  See Options.Span.
type Tracer = obs.Tracer

// Span is one open span of a Tracer; see Options.Span.
type Span = obs.ReqSpan

// NewTracer creates a tracer on the system clock whose ring holds
// capacity completed spans (a default when capacity <= 0).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// SolverStats is the per-fit solver telemetry stored in Model.Stats:
// which strategy ran, and for LSQR the per-response iteration counts and
// final residual norms.
type SolverStats = regress.Stats

// Model is a trained SRDA transformer mapping samples to the
// (c−1)-dimensional discriminant subspace.  Its matrix methods run the
// batched kernels — ProjectBatch / ProjectBatchCSR / PredictBatch /
// PredictBatchCSR, which lower per-row matrix-vector loops into single
// GEMM calls; TransformDense, TransformSparse, PredictDense and
// PredictSparse call them.  srdaserve's micro-batcher and the
// BenchmarkPredictBatch trajectory ride on the same kernels.
type Model = core.Model

func (o Options) toCore() core.Options {
	return core.Options{Alpha: o.Alpha, Strategy: o.Solver, LSQRIter: o.LSQRIter, Workers: o.Workers, Span: o.Span}
}

// Fit trains SRDA on dense data: x is m×n with one sample per row and
// labels[i] ∈ [0, numClasses).  The returned model stores the embedded
// class centroids, so it doubles as a standalone nearest-centroid
// classifier (Model.PredictDense / PredictVec).
func Fit(x *Dense, labels []int, numClasses int, opt Options) (*Model, error) {
	var (
		model *Model
		err   error
	)
	if opt.Whiten {
		model, err = core.FitDenseWhitened(x, labels, numClasses, opt.toCore())
	} else {
		model, err = core.FitDense(x, labels, numClasses, opt.toCore())
	}
	if err != nil {
		return nil, err
	}
	// The primal path already carries stats-based centroids (the exact
	// embedding of each class mean, shared bitwise with the streaming
	// trainer); other solvers — and whitened fits, which rescale W after
	// the fact — compute mean-of-embedding centroids from a full pass.
	if model.Centroids == nil {
		if err := model.SetCentroids(model.TransformDense(x), labels); err != nil {
			return nil, err
		}
	}
	return model, nil
}

// FitCSR trains SRDA on sparse data via LSQR with the paper's
// intercept-absorption trick; the data is never centered or densified, so
// cost is O(LSQRIter · c · nnz).  Like Fit, the returned model carries
// embedded class centroids for standalone prediction.
func FitCSR(x *CSR, labels []int, numClasses int, opt Options) (*Model, error) {
	var (
		model *Model
		err   error
	)
	if opt.Whiten {
		model, err = core.FitSparseWhitened(x, labels, numClasses, opt.toCore())
	} else {
		model, err = core.FitSparse(x, labels, numClasses, opt.toCore())
	}
	if err != nil {
		return nil, err
	}
	if err := model.SetCentroids(model.TransformSparse(x), labels); err != nil {
		return nil, err
	}
	return model, nil
}

// Operator is a matrix-free linear map; implement it to train SRDA on
// data that lives out of core or in a custom layout.
type Operator = solver.Operator

// FitOperator trains SRDA through an arbitrary operator using LSQR.
// Whitening is not applied (the harness cannot materialize the training
// embedding for an arbitrary operator); call Model.WhitenWithin with an
// embedding you computed if you need it.
func FitOperator(op Operator, labels []int, numClasses int, opt Options) (*Model, error) {
	return core.FitOperator(op, labels, numClasses, opt.toCore())
}

// LoadModel reads a model previously written with Model.Save.
func LoadModel(r io.Reader) (*Model, error) { return core.Load(r) }

// SaveModelFile persists a model to path atomically: the bytes go to a
// temporary file in the same directory, are synced, and renamed into
// place, so a crash mid-save never leaves a truncated model behind — a
// concurrent reader (srdaserve's hot-reload watcher in particular) sees
// either the old file or the complete new one.
func SaveModelFile(m *Model, path string) error { return m.SaveFile(path) }

// LoadModelFile reads a model previously written with SaveModelFile (or
// any Model.Save output on disk).
func LoadModelFile(path string) (*Model, error) { return core.LoadFile(path) }

// Responses exposes the paper's responses-generation step (eq. 15–16):
// the c−1 orthonormal, zero-sum target vectors that SRDA regresses on.
// Returned as an m×(c−1) matrix aligned with labels.
func Responses(labels []int, numClasses int) (*Dense, error) {
	rt, err := core.GenerateResponses(labels, numClasses)
	if err != nil {
		return nil, err
	}
	return rt.Materialize(labels), nil
}
