package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"srda/internal/mat"
	"srda/internal/obs"
)

// Trainer is the co-located streaming trainer a worker can host: the
// /v1/observe endpoint feeds it labeled samples, and its metrics join
// the worker's /metrics exposition.  internal/online.StreamTrainer is
// the implementation; serve depends only on this interface so the
// online package can (in its tests) drive serve without an import
// cycle.
//
// Refit latency leaks into ObserveBatch by design: the trainer refits
// inside the call whose row trips a trigger, so the HTTP request that
// delivered the triggering sample waits for the new model to publish.
type Trainer interface {
	// ObserveBatch absorbs the rows of x with their labels, in order.  It
	// checks every row and label before absorbing any: err refuses the
	// batch and leaves the trainer unchanged.  Otherwise every row is
	// absorbed, and refitErr reports a refit the batch tripped that
	// failed or rolled back.  Refits run under ctx's request span.
	ObserveBatch(ctx context.Context, x *mat.Dense, labels []int) (refitErr, err error)
	// NumFeatures is the row width the trainer takes; /v1/observe
	// densifies sparse samples to it.
	NumFeatures() int
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
	Samples []LabeledSample `json:"samples,omitempty"`
}

// ObserveResponse reports how many samples this request absorbed, the
// trainer's total, and the error of a refit the request tripped that
// failed or rolled back ("" when none did).
type ObserveResponse struct {
	Observed   int    `json:"observed"`
	Seen       int64  `json:"seen"`
	RefitError string `json:"refit_error,omitempty"`
}

// handleObserve feeds POSTed labeled samples to the co-located trainer.
// Registered only when Options.Trainer is set.  This is the one edge for
// labeled samples: the body goes through the predict scanner, every
// sample meets the rules predict samples meet (checkSample) against the
// trainer's feature count, and sparse samples are densified.  Then the
// whole request goes to the trainer in one call, which checks the labels
// before absorbing any row.  A request refused on any sample gets a 400
// naming it and changes no trainer counter.  An accepted request is
// absorbed whole and gets a 200, even when a refit it tripped failed or
// rolled back: that outcome is the trainer's, and the reply names it in
// refit_error, so a client never resends rows that were absorbed.
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
	body, err := ReadRequestBody(w, r, DefaultMaxBodyBytes)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, "request body: %v", err)
	}
	sc, err := scanObserve(body, maxRequestSamples)
	defer sc.release()
	if err != nil {
		return writeErr(w, http.StatusBadRequest, "%v", err)
	}
	samples := sc.out.recs
	if len(samples) == 0 {
		return writeErr(w, http.StatusBadRequest, "no samples")
	}
	tr := s.opts.Trainer
	x := mat.NewDense(len(samples), tr.NumFeatures())
	labels := make([]int, len(samples))
	for i := range samples {
		smp := &samples[i]
		if err := checkSample(smp, x.Cols); err != nil {
			return writeErr(w, http.StatusBadRequest, "sample %d: %v", i, err)
		}
		row := x.RowView(i)
		copy(row, smp.dense)
		for t, j := range smp.cols {
			row[j] = smp.vals[t]
		}
		labels[i] = smp.label
	}
	refitErr, err := tr.ObserveBatch(ctx, x, labels)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, "%v", err)
	}
	resp := ObserveResponse{Observed: len(samples), Seen: tr.Seen()}
	if refitErr != nil {
		resp.RefitError = refitErr.Error()
	}
	return writeJSON(w, http.StatusOK, resp)
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
