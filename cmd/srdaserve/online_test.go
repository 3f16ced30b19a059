package main

import (
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"srda"
	"srda/internal/serve"
)

// trainAndSaveSeparable is trainAndSave with a strongly separated topic
// mix: the streaming trainer's primal refit on a 120-sample prefix must
// match the full-data LSQR model on the clean holdout, or the smoke
// test's first refit would roll back spuriously.
func trainAndSaveSeparable(t *testing.T, path string, seed int64) *srda.Dataset {
	t.Helper()
	ds := srda.NewsLike(srda.NewsConfig{Classes: 3, Docs: 200, Vocab: 300, AvgLen: 40, TopicBoost: 30, Seed: seed})
	model, err := srda.FitCSR(ds.Sparse, ds.Labels, ds.NumClasses, srda.Options{Alpha: 1, LSQRIter: 20, Whiten: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := srda.SaveModelFile(model, path); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestOnlineSmoke is the closed-loop acceptance path for -online:
// stream labeled samples into a running worker, watch the trainer
// refit and publish a new version into the live registry, predict
// against it, then poison the stream until a refit regresses on the
// holdout and verify the automatic rollback end to end — the restored
// model answers predictions and both rollback counters appear on
// /metrics.
func TestOnlineSmoke(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.bin")
	ds := trainAndSaveSeparable(t, modelPath, 47)

	const refitSamples = 120
	base, _, stop := startServer(t, config{
		modelPath:    modelPath,
		maxBatch:     8,
		online:       true,
		refitSamples: refitSamples,
		holdoutFrac:  0.1,
	})
	defer stop()
	client := serve.NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Phase 1: stream the whole clean dataset.  With -holdout-frac 0.1
	// every 10th sample is diverted, so the 120-sample trigger fires
	// inside this stream and the refit publishes version 2 before the
	// triggering request returns.
	samples := make([]serve.LabeledSample, 0, ds.Sparse.Rows)
	for i := 0; i < ds.Sparse.Rows; i++ {
		samples = append(samples, serve.LabeledSample{
			Sample: sparseSampleOf(ds, i),
			Label:  ds.Labels[i],
		})
	}
	resp, err := client.Observe(ctx, samples...)
	if err != nil {
		t.Fatalf("clean stream: %v", err)
	}
	if resp.Seen != int64(len(samples)) {
		t.Fatalf("trainer saw %d samples, streamed %d", resp.Seen, len(samples))
	}
	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.ModelSeq != 2 {
		t.Fatalf("model seq after clean refit = %d, want 2 (initial publish + one refit)", h.ModelSeq)
	}

	// Predictions answered by the refitted version.
	probes := []serve.Sample{sparseSampleOf(ds, 0), sparseSampleOf(ds, 1), sparseSampleOf(ds, 2)}
	before, err := client.Predict(ctx, probes...)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range before {
		if c < 0 || c >= ds.NumClasses {
			t.Fatalf("probe %d: class %d out of range", i, c)
		}
	}

	// Phase 2: poison the stream with scaled-up real topic rows labeled
	// with a random *wrong* class.  Wrong-but-inconsistent labels are
	// unlearnable, and at 20× weight they drag every class centroid
	// toward the other topics, so the next refit's candidate collapses
	// on the holdout and must be rolled back.  (Plain huge random noise
	// would not do: isotropic zero-mean poison acts like extra ridge and
	// leaves the discriminant directions intact.)  The Observe request
	// that delivers the triggering sample is still absorbed whole and
	// answered 200; its reply names the rollback in refit_error.
	rng := rand.New(rand.NewSource(48))
	poison := func() serve.LabeledSample {
		src := rng.Intn(ds.Sparse.Rows)
		cols, vals := ds.Sparse.Row(src)
		m := make(map[int]float64, len(cols))
		for k, j := range cols {
			m[j] = 20 * vals[k]
		}
		wrong := (ds.Labels[src] + 1 + rng.Intn(ds.NumClasses-1)) % ds.NumClasses
		return serve.LabeledSample{Sample: serve.SparseSample(m), Label: wrong}
	}
	rollback := ""
	for i := 0; i < 2*refitSamples && rollback == ""; i += 10 {
		batch := make([]serve.LabeledSample, 10)
		for j := range batch {
			batch[j] = poison()
		}
		seen := resp.Seen
		if resp, err = client.Observe(ctx, batch...); err != nil {
			t.Fatalf("poison batch %d: %v", i/10, err)
		}
		if resp.Seen != seen+int64(len(batch)) {
			t.Fatalf("poison batch %d moved seen %d→%d, want +%d", i/10, seen, resp.Seen, len(batch))
		}
		rollback = resp.RefitError
	}
	if !strings.Contains(rollback, "rolled back") {
		t.Fatalf("poison stream never surfaced a rollback, last refit_error = %q", rollback)
	}

	// The rollback republishes the previous model under a fresh version:
	// v3 was the poisoned publish, v4 restores v2's model.
	h, err = client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.ModelSeq != 4 {
		t.Fatalf("model seq after rollback = %d, want 4 (poison publish + restore)", h.ModelSeq)
	}
	after, err := client.Predict(ctx, probes...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("probe %d: class %d after rollback, %d before — restored model differs", i, after[i], before[i])
		}
	}

	// Rollback must be observable on the scrape endpoint.
	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"srdaonline_samples_total",
		"srdaonline_refits_total 2",
		"srdaonline_refit_failures_total 0",
		"srdaonline_rollbacks_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
