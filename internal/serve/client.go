package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"srda/internal/obs"
)

// ErrShed marks replies shed by quota or admission control (HTTP 429 and
// 503): the request was refused by policy, not failed by a bug.  Test
// with errors.Is(err, ErrShed) to tell load shedding apart from real
// errors.  The client never retries: a shed reply comes back as a
// *StatusError carrying the server's Retry-After hint.
var ErrShed = errors.New("serve: request shed by quota or admission control")

// StatusError is a non-200 server reply: the status code, the server's
// error message, and any Retry-After hint.  errors.Is(err, ErrShed)
// reports whether the reply was a shed (429/503) rather than a failure.
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// Message is the server's error string ("" when the body carried
	// none).
	Message string
	// RetryAfter is the parsed Retry-After header (0 when absent).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("serve: http %d: %s", e.Code, e.Message)
	}
	return fmt.Sprintf("serve: http %d", e.Code)
}

// Is makes errors.Is(err, ErrShed) true for quota (429) and
// overload/drain (503) replies.
func (e *StatusError) Is(target error) bool {
	return target == ErrShed &&
		(e.Code == http.StatusTooManyRequests || e.Code == http.StatusServiceUnavailable)
}

// Client is a typed HTTP client for a srdaserve worker or router.  The
// zero value is unusable; construct with NewClient.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTPClient: http.DefaultClient}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// DenseSample wraps a dense feature vector as a request sample.
func DenseSample(x []float64) Sample { return Sample{Dense: x} }

// SparseSample wraps index→value features as a request sample.
func SparseSample(features map[int]float64) Sample { return Sample{Sparse: features} }

// Predict classifies the samples and returns one class per sample.
func (c *Client) Predict(ctx context.Context, samples ...Sample) ([]int, error) {
	resp, err := c.do(ctx, PredictRequest{Samples: samples})
	if err != nil {
		return nil, err
	}
	return resp.Classes, nil
}

// PredictModel classifies the samples against the named registry model.
func (c *Client) PredictModel(ctx context.Context, model string, samples ...Sample) ([]int, error) {
	resp, err := c.do(ctx, PredictRequest{Samples: samples, Model: model})
	if err != nil {
		return nil, err
	}
	return resp.Classes, nil
}

// PredictEmbed classifies the samples and also returns their
// (c−1)-dimensional embeddings.
func (c *Client) PredictEmbed(ctx context.Context, samples ...Sample) ([]int, [][]float64, error) {
	resp, err := c.do(ctx, PredictRequest{Samples: samples, Embed: true})
	if err != nil {
		return nil, nil, err
	}
	return resp.Classes, resp.Embeddings, nil
}

// PredictOne classifies a single sample.
func (c *Client) PredictOne(ctx context.Context, s Sample) (int, error) {
	classes, err := c.Predict(ctx, s)
	if err != nil {
		return 0, err
	}
	if len(classes) != 1 {
		return 0, fmt.Errorf("serve: server returned %d classes for one sample", len(classes))
	}
	return classes[0], nil
}

// PredictRaw sends a fully-formed request and returns the typed
// response: the transport of typed callers, such as backend decorators
// that inspect each reply.
func (c *Client) PredictRaw(ctx context.Context, req *PredictRequest) (*PredictResponse, error) {
	return c.do(ctx, *req)
}

// PredictBody posts an encoded predict body unchanged and returns the
// reply's status and bytes in one attempt: the transport the router's
// HTTP backends forward through.  The error is non-nil only
// when no reply was read: a transport failure, a cancelled context, or a
// reply longer than MaxReplyBytes (ErrReplyTooLarge).
func (c *Client) PredictBody(ctx context.Context, body []byte) (int, []byte, error) {
	rep, err := c.roundTrip(ctx, http.MethodPost, "/v1/predict", body)
	if err != nil {
		return 0, nil, err
	}
	return rep.code, rep.body, nil
}

func (c *Client) do(ctx context.Context, req PredictRequest) (*PredictResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	rep, err := c.roundTrip(ctx, http.MethodPost, "/v1/predict", body)
	if err != nil {
		return nil, err
	}
	if rep.code != http.StatusOK {
		return nil, rep.statusError()
	}
	var out PredictResponse
	if err := json.Unmarshal(rep.body, &out); err != nil {
		return nil, fmt.Errorf("serve: decoding predict response: %w", err)
	}
	want := len(req.Samples)
	if want == 0 {
		want = 1 // shorthand single-sample form
	}
	if len(out.Classes) != want {
		return nil, fmt.Errorf("serve: server returned %d classes for %d samples", len(out.Classes), want)
	}
	return &out, nil
}

// reply is one reply read back from a worker or router, its body
// bounded by MaxReplyBytes.
type reply struct {
	code       int
	retryAfter time.Duration // the Retry-After hint (0 when absent)
	body       []byte
}

// statusError turns a non-200 reply into a *StatusError carrying the
// server's message and any Retry-After hint.
func (r *reply) statusError() error {
	st := &StatusError{Code: r.code, RetryAfter: r.retryAfter}
	var er errorReply
	if err := json.Unmarshal(r.body, &er); err == nil {
		st.Message = er.Error
	}
	return st
}

// roundTrip sends one request and reads its reply.  A POST carries body
// as JSON with the context's span as a traceparent header.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte) (*reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
		obs.InjectTrace(hreq.Header, obs.SpanFromContext(ctx))
	}
	hresp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer func() { _ = hresp.Body.Close() }() // best-effort; the body is read below or abandoned
	b, err := ReadReply(hresp.Body, hresp.ContentLength)
	if err != nil {
		return nil, err
	}
	rep := &reply{code: hresp.StatusCode, body: b}
	if secs, err := strconv.Atoi(hresp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		rep.retryAfter = time.Duration(secs) * time.Second
	}
	return rep, nil
}

// getJSON fetches path and decodes a 200 reply into out.
func (c *Client) getJSON(ctx context.Context, path, what string, out any) error {
	rep, err := c.roundTrip(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if rep.code != http.StatusOK {
		return rep.statusError()
	}
	if err := json.Unmarshal(rep.body, out); err != nil {
		return fmt.Errorf("serve: decoding %s: %w", what, err)
	}
	return nil
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.getJSON(ctx, "/healthz", "health response", &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Models fetches /v1/models, the registry listing.
func (c *Client) Models(ctx context.Context) (*ModelList, error) {
	var ml ModelList
	if err := c.getJSON(ctx, "/v1/models", "model list", &ml); err != nil {
		return nil, err
	}
	return &ml, nil
}

// Metrics fetches the raw /metrics exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	rep, err := c.roundTrip(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	if rep.code != http.StatusOK {
		return "", rep.statusError()
	}
	return string(rep.body), nil
}

// Sketches fetches the worker's CKMS quantile-sketch snapshots from
// /v1/sketches, keyed by metric base name.
func (c *Client) Sketches(ctx context.Context) (map[string]obs.SketchSnapshot, error) {
	var out map[string]obs.SketchSnapshot
	if err := c.getJSON(ctx, "/v1/sketches", "/v1/sketches reply", &out); err != nil {
		return nil, err
	}
	return out, nil
}
