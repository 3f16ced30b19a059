// Package online closes the train-while-serving loop: a streaming
// trainer that ingests labeled dense rows (Observe, or ObserveBatch,
// which refuses a batch whole) into the bounded-memory sufficient
// statistics of core.SuffStats, refits on configurable triggers, and
// atomically publishes each new model version into an internal/registry
// store so router/worker replicas pick it up with zero downtime.  A
// sparse sample is densified before it reaches the trainer; serve's
// /v1/observe edge does that against NumFeatures.
//
// The paper's linear-time claim is what makes this affordable: one
// absorbed sample costs O(n²) (the rank-one Gram contribution), a refit
// costs O(n³) independent of how many samples have streamed through, and
// no past sample is ever revisited.
//
// Three triggers can arm a refit, in any combination (first one wins):
//
//   - sample count: every Policy.MinSamples absorbed samples;
//   - wall interval: Policy.Interval since the last refit, measured on
//     the injected obs.Clock (this package never reads package time —
//     the noclock contract);
//   - drift: the windowed class-mean shift score (see DriftScore)
//     crossing Policy.DriftThreshold.
//
// Equivalence contract: with no holdout diversion, a refit after
// streaming a dataset sample by sample in row order produces a model
// bitwise (math.Float64bits) identical to the batch srda.Fit primal fit
// on the same rows, at any Workers setting — core.FitStats is the single
// solve path both sides share.
//
// Publish → validate → rollback: each refit publishes its candidate
// first, then scores it on the held-out samples against the previous
// version; a regression beyond maxRegression (or a Validate hook error)
// rolls the registry back.  Ordering it this way keeps every swap
// on the registry's one atomic publish path and makes rollbacks
// first-class, observable events (srdareg_rollbacks_total,
// srdaonline_rollbacks_total) rather than silent non-publishes; the
// blast radius is the in-flight requests of one validation interval, and
// in-flight batches never tear (they finish on the snapshot they
// loaded).
package online

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"srda/internal/core"
	"srda/internal/mat"
	"srda/internal/obs"
	"srda/internal/registry"
)

// The fixed bounds of drift detection and holdout validation.
const (
	// driftSamples is the number of recent training samples the drift
	// score compares against the reference means.
	driftSamples = 256
	// maxHoldout bounds the retained holdout samples; past it the oldest
	// are dropped.
	maxHoldout = 512
	// maxRegression is the tolerated drop in holdout accuracy of a
	// candidate versus the live model before its publish is rolled back.
	maxRegression = 0.05
)

// RefitPolicy configures when the trainer refits and how candidates are
// validated.  The zero value never refits on its own; Refit can always
// be called explicitly.
type RefitPolicy struct {
	// MinSamples triggers a refit every MinSamples absorbed samples
	// (0 disables the count trigger).
	MinSamples int
	// Interval triggers a refit when at least this much wall time has
	// passed since the last one, checked on each Observe against the
	// injected clock (0 disables; requires Config.Clock).
	Interval time.Duration
	// DriftThreshold triggers a refit when the windowed class-mean drift
	// score exceeds it (0 disables).  Drift is measured only after the
	// first refit establishes reference means.
	DriftThreshold float64
	// HoldoutFrac diverts roughly this fraction of observed samples
	// (deterministically, every ⌊1/frac⌋-th) into a validation holdout
	// instead of the training statistics.  0 disables validation —
	// required for bitwise streaming↔batch equivalence, since held-out
	// samples never train.
	HoldoutFrac float64
}

// Config configures a StreamTrainer.
type Config struct {
	// NumFeatures and NumClasses fix the stream's shape.
	NumFeatures, NumClasses int
	// Alpha is the ridge penalty of every refit (must be > 0: the
	// streaming Gram starts empty and only the ridge keeps it definite).
	Alpha float64
	// Workers bounds refit parallelism (0 = GOMAXPROCS); like everywhere
	// else it is purely a speed knob — models are bitwise identical at
	// any setting.
	Workers int
	// Policy selects refit triggers and validation.
	Policy RefitPolicy
	// Registry, when non-nil, receives every successful refit as a new
	// version of registry.DefaultName.  Nil runs the trainer standalone
	// (benchmarks, equivalence tests); Refit then just returns the fitted
	// model.
	Registry *registry.Registry
	// Clock supplies the wall time for the Interval trigger; this package
	// never reads package time itself (noclock).  Required when
	// Policy.Interval > 0; obs.SystemClock() is the production value.
	Clock obs.Clock
	// Validate, when non-nil, vets each candidate after the built-in
	// holdout check; an error rolls the publish back.
	Validate func(*core.Model) error
	// Logger receives refit/publish/rollback outcomes.  Nil disables.
	Logger *obs.Logger
	// Flight, when non-nil, is the process flight recorder: every refit
	// appends a numeric-health record (conditioning, holdout comparison,
	// outcome), a rollback fires the registry_rollback trigger, and a
	// failed solve or publish fires refit_validation.  Nil disables.
	Flight *obs.FlightRecorder
}

// holdoutSample is one diverted validation sample.
type holdoutSample struct {
	x     []float64
	label int
}

// StreamTrainer is the streaming trainer; construct with NewStreamTrainer.
// Its samples are dense rows: Observe takes one, ObserveBatch takes a
// batch and refuses it whole on any bad row.  Both are safe for
// concurrent use with each other and with the registry's readers.
type StreamTrainer struct {
	cfg    Config
	stride int // holdout diversion stride (0 = no holdout)

	mu         sync.Mutex
	stats      *core.SuffStats
	total      int64 // all observed samples, including holdout
	sinceRefit int
	lastRefit  time.Time
	hasRefit   bool
	holdout    []holdoutSample
	drift      *driftWindow
	model      *core.Model // last successfully fitted candidate
	version    uint64      // last published registry version (0 = none)

	seen      atomic.Int64 // mirrors total for lock-free reads
	driftBits atomic.Uint64
	// Numeric health of the last refit, published as srdafit_* gauges:
	// Cholesky conditioning, and the holdout accuracies of the last
	// validated candidate versus the model it replaced.
	condBits     atomic.Uint64
	holdCandBits atomic.Uint64
	holdPrevBits atomic.Uint64
	mx           *metrics
}

// NewStreamTrainer validates cfg and returns an empty trainer.
func NewStreamTrainer(cfg Config) (*StreamTrainer, error) {
	if cfg.Alpha <= 0 {
		return nil, fmt.Errorf("online: streaming SRDA needs alpha > 0, got %v", cfg.Alpha)
	}
	if cfg.Policy.Interval > 0 && cfg.Clock == nil {
		return nil, fmt.Errorf("online: Policy.Interval needs an injected Clock (obs.SystemClock())")
	}
	if f := cfg.Policy.HoldoutFrac; f < 0 || f >= 1 {
		if f != 0 { //srdalint:ignore floatcmp exact zero disables the holdout; any other out-of-range value is an error
			return nil, fmt.Errorf("online: HoldoutFrac %v outside [0,1)", f)
		}
	}
	stats, err := core.NewSuffStats(cfg.NumFeatures, cfg.NumClasses)
	if err != nil {
		return nil, err
	}
	t := &StreamTrainer{cfg: cfg, stats: stats, mx: newMetrics()}
	if f := cfg.Policy.HoldoutFrac; f > 0 {
		t.stride = int(math.Floor(1 / f))
		if t.stride < 1 {
			t.stride = 1
		}
	}
	if cfg.Policy.DriftThreshold > 0 {
		t.drift = newDriftWindow(cfg.NumFeatures, cfg.NumClasses, driftSamples)
	}
	if cfg.Clock != nil {
		t.lastRefit = cfg.Clock()
	}
	t.mx.bind(t)
	return t, nil
}

// Metrics returns the trainer's obs instrument set (srdaonline_*); the
// serving layer appends its exposition to /metrics.
func (t *StreamTrainer) Metrics() *obs.Registry { return t.mx.reg }

// Seen returns the number of observed samples (training + holdout).
func (t *StreamTrainer) Seen() int64 { return t.seen.Load() }

// Version returns the last registry version this trainer published
// (0 before the first publish or without a registry).
func (t *StreamTrainer) Version() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// Model returns the last successfully fitted model (nil before the first
// refit).  The returned model is immutable by convention: refits build
// fresh models rather than mutating published ones.
func (t *StreamTrainer) Model() *core.Model {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.model
}

// CondEstimate returns the condition-number estimate of the last
// successful refit's normal equations (0 before the first refit) — the
// srdafit_cond_estimate gauge.
func (t *StreamTrainer) CondEstimate() float64 {
	return math.Float64frombits(t.condBits.Load())
}

// HoldoutAccuracies returns the holdout accuracy of the last validated
// candidate and of the model it was compared against (0,0 before the
// first validated refit) — the srdafit_holdout_accuracy and
// srdafit_prev_accuracy gauges.
func (t *StreamTrainer) HoldoutAccuracies() (candidate, previous float64) {
	return math.Float64frombits(t.holdCandBits.Load()), math.Float64frombits(t.holdPrevBits.Load())
}

// DriftScore returns the current windowed class-mean drift score: the
// maximum over classes of ‖windowMean_c − refMean_c‖ / (‖refMean_c‖+1),
// where the reference means are the cumulative class means captured at
// the last refit.  0 until both a refit and window samples exist.
func (t *StreamTrainer) DriftScore() float64 {
	return math.Float64frombits(t.driftBits.Load())
}

// Observe absorbs one labeled sample and refits when a trigger fires;
// the refit (publish, validation, rollback) happens before Observe
// returns.  It is ObserveBatch on a one-row batch, and returns either
// the refusal or the refit's error.
func (t *StreamTrainer) Observe(x []float64, label int) error {
	refitErr, err := t.ObserveBatch(context.Background(), mat.NewDenseData(1, len(x), x), []int{label})
	if err != nil {
		return err
	}
	return refitErr
}

// ObserveBatch absorbs the rows of x with their labels, in order.  It
// checks every row and label first and refuses the whole batch if any
// fails: err is then non-nil and no counter changed.  Otherwise every
// row is absorbed.  Triggers are evaluated after each row, so refits
// fire at the same sample counts as per-row Observe calls.  A refit that
// fails or rolls back is the trainer's outcome, not the batch's fault:
// the batch goes on, and refitErr reports the first such refit, naming
// the row that tripped it.  When ctx carries a request span, each refit
// runs under a "refit" child of it, so a cross-process trace shows which
// /v1/observe call paid for the solve.  The trainer keeps no reference
// to x.
func (t *StreamTrainer) ObserveBatch(ctx context.Context, x *mat.Dense, labels []int) (refitErr, err error) {
	if x.Rows != len(labels) {
		return nil, fmt.Errorf("online: %d rows but %d labels", x.Rows, len(labels))
	}
	for i, label := range labels {
		if err := t.stats.Check(x.RowView(i), label); err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, label := range labels {
		if err := t.observeLocked(ctx, x.RowView(i), label); err != nil && refitErr == nil {
			refitErr = fmt.Errorf("sample %d: %w", i, err)
		}
	}
	return refitErr, nil
}

// NumFeatures returns the width every observed row must have.
func (t *StreamTrainer) NumFeatures() int { return t.cfg.NumFeatures }

// observeLocked diverts one checked sample to the holdout or absorbs it,
// updates the drift window, then evaluates triggers and returns the
// error of a refit they start; caller holds t.mu.
func (t *StreamTrainer) observeLocked(ctx context.Context, x []float64, label int) error {
	// Deterministic diversion: every stride-th sample validates, the
	// rest train.
	held := t.stride > 0 && (t.total+1)%int64(t.stride) == 0
	if held {
		t.holdout = append(t.holdout, holdoutSample{x: append([]float64(nil), x...), label: label})
		if over := len(t.holdout) - maxHoldout; over > 0 {
			t.holdout = append([]holdoutSample(nil), t.holdout[over:]...)
		}
		t.mx.holdout.Inc()
	} else if err := t.stats.Absorb(x, label); err != nil {
		return err
	}
	t.total++
	t.seen.Store(t.total)
	t.mx.samples.Inc()
	if held {
		return nil
	}
	t.sinceRefit++
	if t.drift != nil {
		t.drift.push(x, label)
		t.updateDriftLocked()
	}
	if trigger := t.triggerLocked(); trigger != "" {
		_, _, err := t.refitLocked(ctx, trigger)
		return err
	}
	return nil
}

// triggerLocked names the armed trigger, or "" when none fired.
func (t *StreamTrainer) triggerLocked() string {
	p := t.cfg.Policy
	if p.MinSamples > 0 && t.sinceRefit >= p.MinSamples {
		return "samples"
	}
	if p.Interval > 0 && t.cfg.Clock != nil {
		if now := t.cfg.Clock(); now.Sub(t.lastRefit) >= p.Interval {
			return "interval"
		}
	}
	if p.DriftThreshold > 0 && t.hasRefit && t.DriftScore() > p.DriftThreshold {
		return "drift"
	}
	return ""
}

// Refit forces a refit now (any pending trigger state is consumed) and
// returns the fitted candidate and, when a registry is configured, the
// version it ended up published at — the rolled-back-to version when
// validation failed.
func (t *StreamTrainer) Refit() (*core.Model, uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.refitLocked(context.Background(), "manual")
}

// refitLocked resets the trigger bookkeeping, then fits the statistics,
// publishes, validates, and rolls back on regression.  t.mu is held for
// the whole refit, so the solve blocks concurrent Observes.  When ctx
// carries a request span (an /v1/observe call tripped the trigger), the
// refit runs under a "refit" child, with core's
// "responses"/"cholesky"/"xty"/"solve" stages nested beneath it, so the
// distributed trace shows the solve.
func (t *StreamTrainer) refitLocked(ctx context.Context, trigger string) (*core.Model, uint64, error) {
	t.sinceRefit = 0
	if t.cfg.Clock != nil {
		t.lastRefit = t.cfg.Clock()
	}
	_, rsp := obs.StartSpan(ctx, "refit")
	defer rsp.End()
	trace := rsp.TraceID()
	t.mx.refits.Inc()
	candidate, err := core.FitStats(t.stats, core.Options{
		Alpha:   t.cfg.Alpha,
		Workers: t.cfg.Workers,
		Span:    rsp,
	})
	if err != nil {
		t.mx.refitFailures.Inc()
		t.cfg.Logger.Warn("refit failed; keeping current model",
			"trigger", trigger, "err", err.Error())
		t.cfg.Flight.RecordHealth(obs.HealthRecord{
			Time: t.now(), Model: registry.DefaultName, Trigger: trigger, Err: err.Error(),
		})
		t.cfg.Flight.NoteRefitFailure(trace)
		return nil, 0, fmt.Errorf("online: refit (trigger=%s): %w", trigger, err)
	}
	t.condBits.Store(math.Float64bits(candidate.Stats.CondEstimate))
	t.model = candidate
	t.hasRefit = true
	if t.drift != nil {
		t.drift.setReference(t.stats)
		t.updateDriftLocked()
	}
	if t.cfg.Registry == nil {
		t.cfg.Logger.Info("refit done (standalone)", "trigger", trigger,
			"samples", t.stats.Seen())
		t.cfg.Flight.RecordHealth(obs.HealthRecord{
			Time: t.now(), Model: registry.DefaultName, Trigger: trigger,
			CondEstimate: candidate.Stats.CondEstimate,
		})
		return candidate, 0, nil
	}
	version, err := t.publishAndValidateLocked(ctx, candidate, trigger)
	return candidate, version, err
}

// now reads the injected clock when one is configured; this package never
// touches package time itself (noclock), so without a clock health
// records carry the zero time.
func (t *StreamTrainer) now() time.Time {
	if t.cfg.Clock != nil {
		return t.cfg.Clock()
	}
	return time.Time{}
}

// publishAndValidateLocked pushes the candidate into the registry,
// scores it on the holdout against the previous live model, and rolls
// back on regression or a Validate-hook error.  Every outcome lands in
// the flight recorder's health ring; a rollback fires its trigger.
// Caller holds t.mu.
func (t *StreamTrainer) publishAndValidateLocked(ctx context.Context, candidate *core.Model, trigger string) (uint64, error) {
	trace := obs.SpanFromContext(ctx).TraceID()
	reg, name := t.cfg.Registry, registry.DefaultName
	prev, hadPrev := reg.Get(name)
	snap, err := reg.Publish(name, candidate)
	if err != nil {
		t.mx.refitFailures.Inc()
		t.cfg.Flight.RecordHealth(obs.HealthRecord{
			Time: t.now(), Model: name, Trigger: trigger,
			CondEstimate: candidate.Stats.CondEstimate, Err: err.Error(),
		})
		t.cfg.Flight.NoteRefitFailure(trace)
		return 0, fmt.Errorf("online: publishing refit: %w", err)
	}
	t.mx.publishes.Inc()
	t.version = snap.Version
	t.cfg.Logger.Info("refit published", "trigger", trigger,
		"model", name, "version", snap.Version)

	health := obs.HealthRecord{
		Time: t.now(), Model: name, Trigger: trigger, Version: snap.Version,
		CondEstimate: candidate.Stats.CondEstimate,
	}
	reason := ""
	if hadPrev {
		candAcc, prevAcc, scored := t.holdoutAccuracyLocked(candidate, prev.Model)
		if scored > 0 {
			health.HoldoutAccuracy, health.PrevAccuracy = candAcc, prevAcc
			health.HoldoutDelta = candAcc - prevAcc
			t.holdCandBits.Store(math.Float64bits(candAcc))
			t.holdPrevBits.Store(math.Float64bits(prevAcc))
		}
		if scored > 0 && prevAcc-candAcc > maxRegression {
			reason = fmt.Sprintf("holdout accuracy %.3f vs %.3f on %d samples", candAcc, prevAcc, scored)
		}
	}
	if reason == "" && t.cfg.Validate != nil {
		if err := t.cfg.Validate(candidate); err != nil {
			reason = err.Error()
		}
	}
	if reason == "" {
		t.cfg.Flight.RecordHealth(health)
		return snap.Version, nil
	}
	health.RolledBack = true
	health.Err = reason
	rb, err := reg.Rollback(name)
	if err != nil {
		t.cfg.Flight.RecordHealth(health)
		return snap.Version, fmt.Errorf("online: rollback after failed validation (%s): %w", reason, err)
	}
	t.mx.rollbacks.Inc()
	t.version = rb.Version
	t.cfg.Logger.Warn("refit rolled back", "trigger", trigger, "model", name,
		"bad_version", snap.Version, "restored_as", rb.Version, "reason", reason)
	t.cfg.Flight.RecordHealth(health)
	t.cfg.Flight.NoteRollback(trace)
	return rb.Version, fmt.Errorf("online: refit v%d rolled back: %s", snap.Version, reason)
}

// holdoutAccuracyLocked scores both models on the retained holdout,
// returning the two accuracies and how many samples were scored; caller
// holds t.mu.
func (t *StreamTrainer) holdoutAccuracyLocked(candidate, prev *core.Model) (candAcc, prevAcc float64, scored int) {
	hold := t.holdout
	if len(hold) == 0 || prev == nil || prev.Centroids == nil {
		return 0, 0, 0
	}
	var candRight, prevRight int
	for _, h := range hold {
		if candidate.PredictVec(h.x) == h.label {
			candRight++
		}
		if prev.PredictVec(h.x) == h.label {
			prevRight++
		}
	}
	n := float64(len(hold))
	return float64(candRight) / n, float64(prevRight) / n, len(hold)
}

// updateDriftLocked recomputes the drift score and publishes it to the
// gauge; caller holds t.mu.
func (t *StreamTrainer) updateDriftLocked() {
	score := 0.0
	if t.drift != nil && t.hasRefit {
		score = t.drift.score()
	}
	t.driftBits.Store(math.Float64bits(score))
}

// Close is a no-op: every refit finishes inside the Observe or Refit
// call that started it, so there is nothing to wait for.  It stays so
// callers that release a trainer on shutdown need not change.
func (t *StreamTrainer) Close() {}
