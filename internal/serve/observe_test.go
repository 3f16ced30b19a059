package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"srda/internal/core"
	"srda/internal/mat"
	"srda/internal/obs"
)

// fakeTrainer records observed samples and exposes one counter, standing
// in for internal/online.StreamTrainer (serve only sees the interface).
type fakeTrainer struct {
	mu      sync.Mutex
	dense   [][]float64
	sparse  int
	labels  []int
	reg     *obs.Registry
	samples *obs.Counter
	fail    bool
}

func newFakeTrainer() *fakeTrainer {
	reg := obs.NewRegistry()
	return &fakeTrainer{
		reg:     reg,
		samples: reg.NewCounter("srdaonline_samples_total", "test counter"),
	}
}

func (f *fakeTrainer) Observe(x []float64, label int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return fmt.Errorf("trainer rejected the sample")
	}
	f.dense = append(f.dense, append([]float64(nil), x...))
	f.labels = append(f.labels, label)
	f.samples.Inc()
	return nil
}

func (f *fakeTrainer) ObserveSparse(cols []int, vals []float64, label int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return fmt.Errorf("trainer rejected the sample")
	}
	f.sparse++
	f.labels = append(f.labels, label)
	f.samples.Inc()
	return nil
}

func (f *fakeTrainer) ObserveCtx(_ context.Context, x []float64, label int) error {
	return f.Observe(x, label)
}

func (f *fakeTrainer) ObserveSparseCtx(_ context.Context, cols []int, vals []float64, label int) error {
	return f.ObserveSparse(cols, vals, label)
}

func (f *fakeTrainer) Seen() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.labels))
}

func (f *fakeTrainer) Metrics() *obs.Registry { return f.reg }

func observeModel(t *testing.T) *core.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	x := mat.NewDense(30, 4)
	labels := make([]int, 30)
	for i := range labels {
		labels[i] = i % 2
		row := x.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64() + 3*float64(labels[i])
		}
	}
	m, err := core.FitDense(x, labels, 2, core.Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestObserveEndpoint: with a trainer, /v1/observe absorbs dense and
// sparse samples, reports totals, and the trainer's metrics join the
// exposition; bad samples get a 400 naming the offender.
func TestObserveEndpoint(t *testing.T) {
	tr := newFakeTrainer()
	s, err := New(observeModel(t), Options{Trainer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close(context.Background()) }()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := NewClient(hs.URL)

	resp, err := c.Observe(context.Background(),
		LabeledSample{Sample: Sample{Dense: []float64{1, 2, 3, 4}}, Label: 0},
		LabeledSample{Sample: Sample{Sparse: map[int]float64{1: 2.5}}, Label: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Observed != 2 || resp.Seen != 2 {
		t.Fatalf("observed/seen = %d/%d, want 2/2", resp.Observed, resp.Seen)
	}
	if len(tr.dense) != 1 || tr.sparse != 1 || tr.labels[1] != 1 {
		t.Fatalf("trainer saw dense=%d sparse=%d labels=%v", len(tr.dense), tr.sparse, tr.labels)
	}

	if _, err := c.Observe(context.Background(),
		LabeledSample{Label: 0}, // neither dense nor sparse
	); err == nil || !strings.Contains(err.Error(), "sample 0") {
		t.Fatalf("malformed sample err = %v", err)
	}
	tr.fail = true
	if _, err := c.Observe(context.Background(),
		LabeledSample{Sample: Sample{Dense: []float64{1, 2, 3, 4}}, Label: 0},
	); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("trainer rejection err = %v", err)
	}

	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "srdaonline_samples_total 2") {
		t.Fatalf("trainer metrics missing from exposition:\n%s", text)
	}
}

// TestObserveUnregisteredWithoutTrainer: no trainer, no endpoint, and
// the exposition carries no trainer instruments.
func TestObserveUnregisteredWithoutTrainer(t *testing.T) {
	s, err := New(observeModel(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close(context.Background()) }()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := NewClient(hs.URL)

	_, err = c.Observe(context.Background(),
		LabeledSample{Sample: Sample{Dense: []float64{1, 2, 3, 4}}, Label: 0})
	var st *StatusError
	if !errors.As(err, &st) || st.Code != http.StatusNotFound {
		t.Fatalf("observe without trainer err = %v, want 404", err)
	}
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text, "srdaonline_") {
		t.Fatalf("trainer metrics leaked into trainerless exposition:\n%s", text)
	}
}
