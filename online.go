package srda

import (
	"fmt"

	"srda/internal/core"
	"srda/internal/obs"
	"srda/internal/online"
	"srda/internal/registry"
	"srda/internal/solver"
	"srda/internal/sparse"
)

// DiskCSR is a CSR matrix stored on disk and streamed during products —
// the paper's "reasonable disk I/O" mode for data exceeding memory.
type DiskCSR = sparse.DiskCSR

// OpenDiskCSR opens a matrix written with CSR.WriteFile, keeping only
// the row pointers in memory.
func OpenDiskCSR(path string) (*DiskCSR, error) { return sparse.OpenDiskCSR(path) }

// FitDiskCSR trains SRDA out of core: each LSQR iteration streams the
// file twice (once for A·v, once for Aᵀ·v) and nothing but the row
// pointers and the solver's O(m+n) vectors stay resident.
func FitDiskCSR(d *DiskCSR, labels []int, numClasses int, opt Options) (*Model, error) {
	op := &solver.DiskOp{A: d}
	model, err := core.FitOperator(op, labels, numClasses, opt.toCore())
	if err != nil {
		return nil, err
	}
	if ioErr := op.Err(); ioErr != nil {
		return nil, fmt.Errorf("srda: out-of-core training hit an I/O error: %w", ioErr)
	}
	return model, nil
}

// StreamTrainer is the streaming SRDA trainer behind the train-while-
// serving loop: it absorbs labeled samples one at a time into
// bounded-memory sufficient statistics (O(n²) per sample, O(n²)
// resident, no sample retained), refits on configurable triggers
// (sample count, wall interval on an injected clock, windowed
// class-mean drift), and — when wired to a model registry — atomically
// publishes each refit for zero-downtime serving, rolling back
// candidates that regress on a held-out validation slice.
//
// The equivalence contract mirrors the batch API: with no holdout
// diversion, streaming a dataset sample by sample and refitting yields
// a model bitwise identical (math.Float64bits) to Fit with SolverPrimal
// on the same rows, at any Workers setting.  See doc/ONLINE.md.
type StreamTrainer = online.StreamTrainer

// StreamConfig configures NewStreamTrainer.
type StreamConfig = online.Config

// RefitPolicy selects the streaming trainer's refit triggers and the
// holdout fraction its candidates are validated on.
type RefitPolicy = online.RefitPolicy

// ModelRegistry is the multi-tenant versioned model store the streaming
// trainer publishes into and srdaserve serves from.
type ModelRegistry = registry.Registry

// NewModelRegistry creates an empty model registry with default options.
func NewModelRegistry() *ModelRegistry { return registry.New(registry.Options{}) }

// NewStreamTrainer validates cfg and returns an empty streaming trainer.
func NewStreamTrainer(cfg StreamConfig) (*StreamTrainer, error) {
	return online.NewStreamTrainer(cfg)
}

// SystemClock returns the wall clock in the injectable form
// StreamConfig.Clock expects; tests inject fakes instead.
func SystemClock() obs.Clock { return obs.SystemClock() }

// SuffStats re-exports the streaming accumulator for callers that want
// to manage absorption and refitting themselves; FitStats runs the same
// solve a StreamTrainer refit does.
type SuffStats = core.SuffStats

// NewSuffStats allocates empty streaming sufficient statistics.
func NewSuffStats(numFeatures, numClasses int) (*SuffStats, error) {
	return core.NewSuffStats(numFeatures, numClasses)
}

// FitStats solves an SRDA model from accumulated statistics.
func FitStats(s *SuffStats, opt Options) (*Model, error) {
	return core.FitStats(s, opt.toCore())
}
