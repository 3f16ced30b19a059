package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"srda/internal/core"
	"srda/internal/mat"
	"srda/internal/obs"
	"srda/internal/online"
	"srda/internal/registry"
)

// fakeTrainer records observed rows and exposes one counter, standing
// in for internal/online.StreamTrainer where a test needs only what the
// handler hands over.
type fakeTrainer struct {
	mu      sync.Mutex
	rows    [][]float64
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

func (f *fakeTrainer) ObserveBatch(_ context.Context, x *mat.Dense, labels []int) (error, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return nil, fmt.Errorf("trainer rejected the batch")
	}
	for i, label := range labels {
		f.rows = append(f.rows, append([]float64(nil), x.RowView(i)...))
		f.labels = append(f.labels, label)
		f.samples.Inc()
	}
	return nil, nil
}

func (f *fakeTrainer) NumFeatures() int { return 4 }

func (f *fakeTrainer) Seen() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.labels))
}

func (f *fakeTrainer) Metrics() *obs.Registry { return f.reg }

func observeModel(t testing.TB) *core.Model {
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

// TestObserveEndpoint: with a trainer, /v1/observe hands dense and
// densified sparse samples over as one batch, reports totals, and the
// trainer's metrics join the exposition; bad samples get a 400 naming
// the offender.
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
	if !slices.Equal(tr.rows[0], []float64{1, 2, 3, 4}) || !slices.Equal(tr.rows[1], []float64{0, 2.5, 0, 0}) ||
		!slices.Equal(tr.labels, []int{0, 1}) {
		t.Fatalf("trainer saw rows %v labels %v, want the dense rows of both samples", tr.rows, tr.labels)
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

// TestObserveAbsorbsRequestDespiteRollback: a refit that rolls back is
// the trainer's outcome, not the request's fault.  The request that
// tripped it is absorbed whole and answered 200 with the rollback named
// in refit_error, so a client has no reason to resend rows that were
// already counted.
func TestObserveAbsorbsRequestDespiteRollback(t *testing.T) {
	reg := registry.New(registry.Options{})
	validations := 0
	tr, err := online.NewStreamTrainer(online.Config{
		NumFeatures: 4, NumClasses: 2, Alpha: 1,
		Policy:   online.RefitPolicy{MinSamples: 2},
		Registry: reg,
		Validate: func(*core.Model) error {
			if validations++; validations >= 2 {
				return errors.New("refit vetoed")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(nil, Options{Registry: reg, Trainer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close(context.Background()) }()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := NewClient(hs.URL)

	sample := func(label int) LabeledSample {
		x := []float64{1, 0, 0, 0}
		x[label+1] = 3
		return LabeledSample{Sample: Sample{Dense: x}, Label: label}
	}
	ctx := context.Background()
	resp, err := c.Observe(ctx, sample(0), sample(1)) // refit 1 publishes v1
	if err != nil || resp.RefitError != "" {
		t.Fatalf("first request: resp %+v err %v", resp, err)
	}
	// Sample 1 of this request trips refit 2, the first the hook vetoes.
	resp, err = c.Observe(ctx, sample(0), sample(1), sample(0))
	if err != nil {
		t.Fatalf("request whose refit rolled back: %v", err)
	}
	if resp.Observed != 3 || resp.Seen != 5 || tr.Seen() != 5 {
		t.Fatalf("observed/seen = %d/%d (trainer %d), want 3/5", resp.Observed, resp.Seen, tr.Seen())
	}
	if !strings.HasPrefix(resp.RefitError, "sample 1: ") || !strings.Contains(resp.RefitError, "v2 rolled back: refit vetoed") {
		t.Fatalf("refit_error = %q, want sample 1's rollback", resp.RefitError)
	}
	// Per-row Observe still returns the refit's error: the next sample
	// trips refit 3, vetoed too.
	if err := tr.Observe([]float64{1, 0, 3, 0}, 1); err == nil || !strings.Contains(err.Error(), "v4 rolled back") {
		t.Fatalf("Observe tripping a vetoed refit: err = %v", err)
	}
	if tr.Seen() != 6 {
		t.Fatalf("seen = %d, want 6", tr.Seen())
	}
}
