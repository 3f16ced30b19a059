package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"srda/internal/obs"
)

// Trainer is the co-located streaming trainer a worker can host: the
// /v1/observe endpoint feeds it labeled samples, and its metrics join
// the worker's /metrics exposition.  internal/online.StreamTrainer is
// the implementation; serve depends only on this interface so the
// online package can (in its tests) drive serve without an import
// cycle.
//
// Refit latency leaks into Observe by design: the trainer refits inside
// the Observe call that trips a trigger, so the HTTP request that
// delivered the triggering sample waits for the new model to publish.
type Trainer interface {
	// Observe absorbs one dense labeled sample.  No method may keep x,
	// cols or vals past its return: they view the worker's pooled body
	// buffers.
	Observe(x []float64, label int) error
	// ObserveSparse absorbs one CSR-form labeled sample.
	ObserveSparse(cols []int, vals []float64, label int) error
	// ObserveCtx is Observe with trace context: a synchronous refit the
	// sample triggers runs under the request's span tree, so the trace
	// that delivered the triggering sample shows the refit it paid for.
	ObserveCtx(ctx context.Context, x []float64, label int) error
	// ObserveSparseCtx is ObserveSparse with trace context.
	ObserveSparseCtx(ctx context.Context, cols []int, vals []float64, label int) error
	// Seen returns the number of samples observed so far.
	Seen() int64
	// Metrics exposes the trainer's instruments (srdaonline_*).
	Metrics() *obs.Registry
}

// LabeledSample is one training example for POST /v1/observe: a Sample
// plus its class label.
type LabeledSample struct {
	Sample
	Label int `json:"label"`
}

// ObserveRequest is the POST /v1/observe payload.
type ObserveRequest struct {
	Samples []LabeledSample `json:"samples"`
}

// ObserveResponse reports how many samples this request absorbed and
// the trainer's total.
type ObserveResponse struct {
	Observed int   `json:"observed"`
	Seen     int64 `json:"seen"`
}

// handleObserve feeds POSTed labeled samples to the co-located trainer.
// Registered only when Options.Trainer is set.  The body goes through
// the predict scanner, which fills the cols/vals/label the trainer
// takes.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeErr(w, http.StatusMethodNotAllowed, "POST required")
	}
	if s.stopped.Load() {
		code, reply := ErrorBody(ErrShuttingDown)
		return writeReply(w, code, reply)
	}
	ctx, root := s.startRequestSpan(r.Context(), "observe", r.Header)
	defer root.End()
	body, err := ReadRequestBody(w, r, s.opts.MaxBodyBytes)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, "request body: %v", err)
	}
	sc, err := scanObserve(body, s.opts.MaxRequestSamples)
	defer sc.release() // the trainer keeps no sample slice past its call
	if err != nil {
		return writeErr(w, http.StatusBadRequest, "%v", err)
	}
	samples := sc.out.recs[:sc.out.live]
	if len(samples) == 0 {
		return writeErr(w, http.StatusBadRequest, "no samples")
	}
	tr := s.opts.Trainer
	for i, ls := range samples {
		hasDense, hasSparse := len(ls.dense) > 0, len(ls.cols) > 0
		if hasDense == hasSparse {
			return writeErr(w, http.StatusBadRequest, "sample %d: need exactly one of dense or sparse", i)
		}
		if hasDense {
			err = tr.ObserveCtx(ctx, ls.dense, ls.label)
		} else {
			// Sorted columns: the trainer's streaming statistics
			// accumulate in index order.
			cols, vals := sortSparse(ls.cols, ls.vals)
			err = tr.ObserveSparseCtx(ctx, cols, vals, ls.label)
		}
		if err != nil {
			// Samples before i were absorbed; the caller sees how far the
			// request got via the error index and the seen total.
			return writeErr(w, http.StatusBadRequest, "sample %d: %v", i, err)
		}
	}
	return writeJSON(w, http.StatusOK, ObserveResponse{
		Observed: len(samples),
		Seen:     tr.Seen(),
	})
}

// Observe posts labeled training samples to a worker's co-located
// streaming trainer (404 unless the server runs with -online).
func (c *Client) Observe(ctx context.Context, samples ...LabeledSample) (*ObserveResponse, error) {
	body, err := json.Marshal(ObserveRequest{Samples: samples})
	if err != nil {
		return nil, err
	}
	rep, err := c.roundTrip(ctx, http.MethodPost, "/v1/observe", body)
	if err != nil {
		return nil, err
	}
	if rep.code != http.StatusOK {
		return nil, rep.statusError()
	}
	var out ObserveResponse
	if err := json.Unmarshal(rep.body, &out); err != nil {
		return nil, fmt.Errorf("serve: decoding observe response: %w", err)
	}
	return &out, nil
}
