package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuotaShed429NotRetried(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(errorReply{Error: `tenant "a" over its request quota`})
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	_, err := c.Predict(context.Background(), DenseSample([]float64{1}))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("429 not a shed: %v", err)
	}
	var st *StatusError
	if !errors.As(err, &st) || st.Code != http.StatusTooManyRequests || st.RetryAfter != time.Second {
		t.Fatalf("err = %+v", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("server saw %d attempts, want 1", hits.Load())
	}
}

func TestShedVsErrorDistinct(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(errorReply{Error: "no samples"})
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	_, err := c.Predict(context.Background(), DenseSample([]float64{1}))
	if errors.Is(err, ErrShed) {
		t.Fatalf("a 400 must not read as a shed: %v", err)
	}
	var st *StatusError
	if !errors.As(err, &st) || st.Code != http.StatusBadRequest {
		t.Fatalf("err = %v", err)
	}
	if got, want := st.Error(), "serve: http 400: no samples"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}
