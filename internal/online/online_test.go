package online

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"srda/internal/core"
	"srda/internal/mat"
	"srda/internal/registry"
)

// fakeClock is a manually-advanced clock for the interval trigger.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time          { return f.now }
func (f *fakeClock) Advance(d time.Duration) { f.now = f.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }
func blobSample(rng *rand.Rand, n, lab int) []float64 {
	x := make([]float64, n)
	for j := range x {
		x[j] = rng.NormFloat64() + 4*float64(lab)
	}
	return x
}

// streamBlobs observes count alternating-class blob samples.
func streamBlobs(t *testing.T, tr *StreamTrainer, rng *rand.Rand, n, c, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		lab := i % c
		if err := tr.Observe(blobSample(rng, n, lab), lab); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	base := Config{NumFeatures: 4, NumClasses: 2, Alpha: 1}
	if _, err := NewStreamTrainer(Config{NumFeatures: 4, NumClasses: 2}); err == nil {
		t.Fatal("alpha 0 accepted")
	}
	cfg := base
	cfg.Policy.Interval = time.Minute
	if _, err := NewStreamTrainer(cfg); err == nil {
		t.Fatal("interval trigger without a clock accepted")
	}
	cfg = base
	cfg.Policy.HoldoutFrac = 1.5
	if _, err := NewStreamTrainer(cfg); err == nil {
		t.Fatal("holdout fraction 1.5 accepted")
	}
	cfg = base
	cfg.NumClasses = 1
	if _, err := NewStreamTrainer(cfg); err == nil {
		t.Fatal("1 class accepted")
	}
	if _, err := NewStreamTrainer(base); err != nil {
		t.Fatal(err)
	}
}

func TestObserveErrors(t *testing.T) {
	// Every second sample would go to the holdout: a rejected one must
	// not be diverted either.
	tr, err := NewStreamTrainer(Config{NumFeatures: 3, NumClasses: 2, Alpha: 1,
		Policy: RefitPolicy{HoldoutFrac: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe([]float64{1, 2, 3}, 5); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if err := tr.Observe([]float64{1, 2}, 0); err == nil {
		t.Fatal("short sample accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := tr.Observe([]float64{bad, 1, 0}, 1); err == nil {
			t.Fatalf("sample with %v accepted", bad)
		}
	}
	// A batch is refused whole: its good first row is not absorbed
	// either, and the error names the bad row.
	batch := mat.NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if _, err := tr.ObserveBatch(context.Background(), batch, []int{0, 2}); err == nil || !strings.Contains(err.Error(), "sample 1") {
		t.Fatalf("batch with a bad last label: err = %v", err)
	}
	if _, err := tr.ObserveBatch(context.Background(), batch, []int{0}); err == nil {
		t.Fatal("batch with fewer labels than rows accepted")
	}
	if tr.Seen() != 0 {
		t.Fatalf("failed observes counted: %d", tr.Seen())
	}
	if got := tr.mx.samples.Value(); got != 0 {
		t.Fatalf("srdaonline_samples_total = %d after only failures", got)
	}
	if len(tr.holdout) != 0 {
		t.Fatalf("failed observes diverted to the holdout: %d", len(tr.holdout))
	}
}

// TestCountTriggerPublishes: MinSamples fires every N samples and each
// refit lands in the registry as the next version.
func TestCountTriggerPublishes(t *testing.T) {
	reg := registry.New(registry.Options{})
	tr, err := NewStreamTrainer(Config{
		NumFeatures: 6, NumClasses: 2, Alpha: 1,
		Policy:   RefitPolicy{MinSamples: 10},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	streamBlobs(t, tr, rng, 6, 2, 25)
	if got := tr.Version(); got != 2 {
		t.Fatalf("version after 25 samples = %d, want 2 (refits at 10 and 20)", got)
	}
	snap, ok := reg.Get("default")
	if !ok || snap.Version != 2 {
		t.Fatalf("registry live version = %v, %v", snap, ok)
	}
	if tr.Seen() != 25 || tr.mx.samples.Value() != 25 {
		t.Fatalf("seen = %d, counter = %d, want 25", tr.Seen(), tr.mx.samples.Value())
	}
	if r, v := tr.mx.refits.Value(), tr.Version(); r != 2 || v != 2 {
		t.Fatalf("refits = %d, published version = %d, want 2, 2", r, v)
	}
	if tr.Model() == nil || tr.Model().Centroids == nil {
		t.Fatal("published model missing or centroid-less")
	}
}

// TestIntervalTrigger: the wall-interval trigger fires on the injected
// clock and only when the interval has really elapsed.
func TestIntervalTrigger(t *testing.T) {
	clk := newFakeClock()
	reg := registry.New(registry.Options{})
	tr, err := NewStreamTrainer(Config{
		NumFeatures: 4, NumClasses: 2, Alpha: 1,
		Policy:   RefitPolicy{Interval: time.Minute},
		Registry: reg,
		Clock:    clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	streamBlobs(t, tr, rng, 4, 2, 6)
	if got := tr.Version(); got != 0 {
		t.Fatalf("refit before the interval elapsed (version %d)", got)
	}
	clk.Advance(61 * time.Second)
	streamBlobs(t, tr, rng, 4, 2, 2)
	if got := tr.Version(); got != 1 {
		t.Fatalf("version after interval = %d, want 1", got)
	}
	// The trigger clock was re-anchored at the refit: more samples inside
	// the new interval must not refit again.
	streamBlobs(t, tr, rng, 4, 2, 10)
	if got := tr.Version(); got != 1 {
		t.Fatalf("refit inside the fresh interval (version %d)", got)
	}
}

// TestHoldoutDiversion: every stride-th sample validates instead of
// training, and the retained holdout keeps the newest maxHoldout.
func TestHoldoutDiversion(t *testing.T) {
	tr, err := NewStreamTrainer(Config{
		NumFeatures: 4, NumClasses: 2, Alpha: 1,
		Policy: RefitPolicy{HoldoutFrac: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sample i carries i in its first feature; every 4th (i = 3, 7, ...)
	// is held out, 5 more than the holdout retains.
	const held = maxHoldout + 5
	for i := 0; i < 4*held; i++ {
		if err := tr.Observe([]float64{float64(i), 1, 0, 0}, i%2); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.stats.Seen(); got != 3*held {
		t.Fatalf("trained samples = %d, want %d (%d of %d diverted)", got, 3*held, held, 4*held)
	}
	if got := tr.mx.samples.Value(); got != 4*held {
		t.Fatalf("srdaonline_samples_total = %d, want %d: held-out samples count too", got, 4*held)
	}
	if got := len(tr.holdout); got != maxHoldout {
		t.Fatalf("retained holdout = %d, want maxHoldout = %d", got, maxHoldout)
	}
	if first, last := tr.holdout[0].x[0], tr.holdout[maxHoldout-1].x[0]; first != 4*5+3 || last != 4*held-1 {
		t.Fatalf("retained holdout spans samples %v..%v, want %d..%d", first, last, 4*5+3, 4*held-1)
	}
	if tr.Seen() != 4*held {
		t.Fatalf("seen = %d, want %d (holdout still observed)", tr.Seen(), 4*held)
	}
}

// TestValidateHookRollback: a failing Validate hook rolls the freshly
// published version back and surfaces on every counter that should see it.
func TestValidateHookRollback(t *testing.T) {
	reg := registry.New(registry.Options{})
	fail := false
	tr, err := NewStreamTrainer(Config{
		NumFeatures: 5, NumClasses: 2, Alpha: 1,
		Registry: reg,
		Validate: func(*core.Model) error {
			if fail {
				return fmt.Errorf("canary rejected the candidate")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	streamBlobs(t, tr, rng, 5, 2, 12)
	good, ver, err := tr.Refit()
	if err != nil || ver != 1 {
		t.Fatalf("first refit: model=%v version=%d err=%v", good, ver, err)
	}
	fail = true
	streamBlobs(t, tr, rng, 5, 2, 12)
	_, ver, err = tr.Refit()
	if err == nil || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("second refit err = %v, want rollback", err)
	}
	// v2 was the bad candidate; the rollback republished v1's model as v3.
	if ver != 3 || tr.Version() != 3 {
		t.Fatalf("post-rollback version = %d / %d, want 3", ver, tr.Version())
	}
	snap, _ := reg.Get("default")
	if snap.Model != good {
		t.Fatal("live model after rollback is not the pre-regression model")
	}
	if got := tr.mx.rollbacks.Value(); got != 1 {
		t.Fatalf("srdaonline_rollbacks_total = %d, want 1", got)
	}
}

// TestHoldoutRegressionRollback: a candidate wrecked by unlearnable
// poison regresses on the clean holdout and is rolled back without any
// custom hook — the built-in validation loop end to end.
func TestHoldoutRegressionRollback(t *testing.T) {
	reg := registry.New(registry.Options{})
	tr, err := NewStreamTrainer(Config{
		NumFeatures: 6, NumClasses: 2, Alpha: 1,
		Policy:   RefitPolicy{HoldoutFrac: 0.1},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	streamBlobs(t, tr, rng, 6, 2, 100)
	if _, ver, err := tr.Refit(); err != nil || ver != 1 {
		t.Fatalf("clean refit: version=%d err=%v", ver, err)
	}
	// Huge-magnitude random-label noise: no model can score it, but it
	// dominates the Gram and destroys the candidate on the clean holdout.
	for i := 0; i < 40; i++ {
		x := make([]float64, 6)
		for j := range x {
			x[j] = 1e6 * rng.NormFloat64()
		}
		if err := tr.Observe(x, rng.Intn(2)); err != nil {
			t.Fatalf("poison observe %d: %v", i, err)
		}
	}
	_, _, err = tr.Refit()
	if err == nil || !strings.Contains(err.Error(), "holdout accuracy") {
		t.Fatalf("poisoned refit err = %v, want holdout-accuracy rollback", err)
	}
	if got := tr.mx.rollbacks.Value(); got != 1 {
		t.Fatalf("srdaonline_rollbacks_total = %d, want 1", got)
	}
}

// TestRefitFailureKeepsModel: a refit that cannot solve (a class with no
// samples yet) publishes nothing and counts as a failure.
func TestRefitFailureKeepsModel(t *testing.T) {
	reg := registry.New(registry.Options{})
	tr, err := NewStreamTrainer(Config{
		NumFeatures: 4, NumClasses: 3, Alpha: 1,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	// Only classes 0 and 1 ever arrive; class 2 stays empty.
	streamBlobs(t, tr, rng, 4, 2, 10)
	if _, _, err := tr.Refit(); err == nil {
		t.Fatal("refit with an empty class succeeded")
	}
	if got := tr.mx.refitFailures.Value(); got != 1 {
		t.Fatalf("srdaonline_refit_failures_total = %d, want 1", got)
	}
	if tr.Version() != 0 || tr.Model() != nil {
		t.Fatal("failed refit must not publish or record a model")
	}
	if _, ok := reg.Get("default"); ok {
		t.Fatal("registry holds a model after a failed refit")
	}
}

// TestDriftTrigger: shifting the class-conditional means past the
// threshold refits without any count/interval trigger.  The baseline
// overfills the window, which keeps the newest driftSamples.
func TestDriftTrigger(t *testing.T) {
	reg := registry.New(registry.Options{})
	tr, err := NewStreamTrainer(Config{
		NumFeatures: 4, NumClasses: 2, Alpha: 1,
		Policy:   RefitPolicy{DriftThreshold: 0.5},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(27))
	streamBlobs(t, tr, rng, 4, 2, driftSamples+40)
	if tr.drift.size != driftSamples || tr.drift.winCounts[0]+tr.drift.winCounts[1] != driftSamples {
		t.Fatalf("drift window holds %d samples (%v by class), want %d", tr.drift.size, tr.drift.winCounts, driftSamples)
	}
	if _, ver, err := tr.Refit(); err != nil || ver != 1 {
		t.Fatalf("baseline refit: version=%d err=%v", ver, err)
	}
	if s := tr.DriftScore(); s > 0.5 {
		t.Fatalf("drift score %v already past threshold right after refit", s)
	}
	// Shift both class means by +20: the window departs from the refit's
	// reference means and the drift trigger must fire.
	fired := false
	for i := 0; i < 64 && !fired; i++ {
		lab := i % 2
		x := blobSample(rng, 4, lab)
		for j := range x {
			x[j] += 20
		}
		if err := tr.Observe(x, lab); err != nil {
			t.Fatalf("shifted observe %d: %v", i, err)
		}
		fired = tr.Version() >= 2
	}
	if !fired {
		t.Fatalf("drift trigger never fired (score %v)", tr.DriftScore())
	}
}

// TestStandaloneRefit: without a registry the trainer still fits and
// reports version 0.
func TestStandaloneRefit(t *testing.T) {
	tr, err := NewStreamTrainer(Config{NumFeatures: 4, NumClasses: 2, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	streamBlobs(t, tr, rng, 4, 2, 16)
	m, ver, err := tr.Refit()
	if err != nil || ver != 0 || m == nil {
		t.Fatalf("standalone refit: model=%v version=%d err=%v", m, ver, err)
	}
	if tr.Model() != m {
		t.Fatal("Model() does not return the refit candidate")
	}
}

// TestObserveFormsAgree: per-row Observe and one ObserveBatch over the
// same rows produce bitwise-identical refits, with the count trigger
// firing at the same samples inside the batch.
func TestObserveFormsAgree(t *testing.T) {
	const m, n, c = 30, 8, 2
	rng := rand.New(rand.NewSource(30))
	x := mat.NewDense(m, n)
	labels := make([]int, m)
	for i := 0; i < m; i++ {
		labels[i] = i % c
		row := x.RowView(i)
		for j := range row {
			if rng.Float64() < 0.5 {
				row[j] = rng.NormFloat64() + float64(labels[i])
			}
		}
	}
	newTrainer := func() *StreamTrainer {
		tr, err := NewStreamTrainer(Config{NumFeatures: n, NumClasses: c, Alpha: 1,
			Policy: RefitPolicy{MinSamples: 7}})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	rows := newTrainer()
	for i := 0; i < m; i++ {
		if err := rows.Observe(x.RowView(i), labels[i]); err != nil {
			t.Fatal(err)
		}
	}
	batch := newTrainer()
	if refitErr, err := batch.ObserveBatch(context.Background(), x, labels); err != nil || refitErr != nil {
		t.Fatal(err, refitErr)
	}
	if r, b := rows.mx.refits.Value(), batch.mx.refits.Value(); r != 4 || b != r {
		t.Fatalf("refits: per-row %d, batch %d, want 4", r, b)
	}
	mr, _, err := rows.Refit()
	if err != nil {
		t.Fatal(err)
	}
	mb, _, err := batch.Refit()
	if err != nil {
		t.Fatal(err)
	}
	for i := range mr.W.Data {
		if math.Float64bits(mr.W.Data[i]) != math.Float64bits(mb.W.Data[i]) {
			t.Fatalf("W[%d]: per-row %v vs batch %v", i, mr.W.Data[i], mb.W.Data[i])
		}
	}
}

// TestConcurrentBatches: batches from several goroutines each absorb
// whole under the trainer's lock, so with batches as long as the refit
// count every refit fires at a batch boundary, and every sample counts.
func TestConcurrentBatches(t *testing.T) {
	const n, c, feeders, batches, rows = 4, 2, 4, 10, 5
	tr, err := NewStreamTrainer(Config{NumFeatures: n, NumClasses: c, Alpha: 1,
		Policy: RefitPolicy{MinSamples: rows}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < feeders; g++ {
		rng := rand.New(rand.NewSource(int64(40 + g)))
		x := mat.NewDense(rows, n)
		labels := make([]int, rows)
		for i := range labels {
			labels[i] = i % c
			copy(x.RowView(i), blobSample(rng, n, labels[i]))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if refitErr, err := tr.ObserveBatch(context.Background(), x, labels); err != nil || refitErr != nil {
					t.Error(err, refitErr)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := tr.Seen(); got != feeders*batches*rows {
		t.Fatalf("seen %d, want %d", got, feeders*batches*rows)
	}
	if got := tr.mx.refits.Value(); got != feeders*batches {
		t.Fatalf("%d refits, want one per batch (%d)", got, feeders*batches)
	}
}

// TestMetricsExposition: the trainer's registry exposes every
// srdaonline_* instrument, including the drift gauge.
func TestMetricsExposition(t *testing.T) {
	tr, err := NewStreamTrainer(Config{NumFeatures: 4, NumClasses: 2, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tr.Metrics().WritePrometheus(&sb)
	text := sb.String()
	for _, name := range []string{
		"srdaonline_samples_total", "srdaonline_refits_total",
		"srdaonline_refit_failures_total", "srdaonline_rollbacks_total",
		"srdaonline_drift_score",
	} {
		if !strings.Contains(text, name) {
			t.Fatalf("exposition missing %s:\n%s", name, text)
		}
	}
}
