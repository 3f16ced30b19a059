package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestClientRepliesBounded: every client read of a replica reply stops
// at MaxReplyBytes with ErrReplyTooLarge when the replica streams an
// endless body, whatever the status.
func TestClientRepliesBounded(t *testing.T) {
	var status atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(int(status.Load()))
		chunk := bytes.Repeat([]byte(" "), 64<<10)
		for {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	calls := map[string]func() error{
		"Predict": func() error { _, err := c.Predict(ctx, DenseSample([]float64{1})); return err },
		"PredictBody": func() error {
			_, _, err := c.PredictBody(ctx, []byte(`{"dense":[1]}`))
			return err
		},
		"Health":   func() error { _, err := c.Health(ctx); return err },
		"Models":   func() error { _, err := c.Models(ctx); return err },
		"Metrics":  func() error { _, err := c.Metrics(ctx); return err },
		"Sketches": func() error { _, err := c.Sketches(ctx); return err },
		"Observe":  func() error { _, err := c.Observe(ctx, LabeledSample{Sample: DenseSample([]float64{1})}); return err },
	}
	for _, code := range []int{http.StatusOK, http.StatusInternalServerError} {
		status.Store(int64(code))
		for _, name := range []string{"Predict", "PredictBody", "Health", "Models", "Metrics", "Sketches", "Observe"} {
			if err := calls[name](); !errors.Is(err, ErrReplyTooLarge) {
				t.Errorf("%s on an endless %d reply: %v, want ErrReplyTooLarge", name, code, err)
			}
		}
	}
	if got := StatusCode(ErrReplyTooLarge); got != http.StatusBadGateway {
		t.Errorf("StatusCode(ErrReplyTooLarge) = %d, want 502", got)
	}
}

// TestPredictBodyMatchesPredict: the byte entry point and the typed
// in-process call answer the same request with the same reply.
func TestPredictBodyMatchesPredict(t *testing.T) {
	model, probes := trainBlobs(t, 6, 4, 3)
	s, err := New(model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close(context.Background()) }()
	req := &PredictRequest{Embed: true}
	for k := 0; k < probes.Rows; k++ {
		req.Samples = append(req.Samples, DenseSample(probes.RowView(k)))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, reply := s.PredictBody(context.Background(), nil, body)
	if code != http.StatusOK {
		t.Fatalf("PredictBody: %d %s", code, reply)
	}
	resp, err := s.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if _, want := encodeReply(http.StatusOK, resp); !bytes.Equal(reply, want) {
		t.Fatalf("PredictBody replied %s, Predict %s", reply, want)
	}
}
