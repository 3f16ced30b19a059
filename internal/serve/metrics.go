package serve

import (
	"io"

	"srda/internal/obs"
)

// metrics aggregates everything /metrics exposes, built on internal/obs.
// The registry is per-server (not obs.Default()) so tests and multiple
// servers in one process stay isolated.  Registration order here is the
// exposition order and is pinned byte-for-byte by the golden test in
// metrics_test.go — new instruments go at the end.
type metrics struct {
	reg           *obs.Registry
	requests      *obs.CounterVec // endpoint, code
	errors        *obs.CounterVec // endpoint
	batchSize     *obs.Histogram  // samples per inference batch
	samples       *obs.Counter
	batches       *obs.Counter
	reloads       *obs.Counter
	reloadErrors  *obs.Counter
	queueRejects  *obs.Counter
	latencySketch *obs.QuantileSketch // predict seconds, receipt → reply: rank-bounded p50/p95/p99
}

// newMetrics registers the serve instrument set on a fresh registry.
// queueDepth and modelSeq are sampled at exposition time.
func newMetrics(queueDepth, modelSeq func() int64) *metrics {
	reg := obs.NewRegistry()
	mx := &metrics{
		reg: reg,
		requests: reg.NewCounterVec("srdaserve_requests_total",
			"HTTP requests by endpoint and status code.", "endpoint", "code"),
		errors: reg.NewCounterVec("srdaserve_errors_total",
			"Failed requests by endpoint.", "endpoint"),
		batchSize: reg.NewHistogram("srdaserve_batch_size",
			"Samples coalesced per inference batch.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		samples: reg.NewCounter("srdaserve_samples_total",
			"Samples predicted."),
		batches: reg.NewCounter("srdaserve_batches_total",
			"Inference batches dispatched."),
		reloads: reg.NewCounter("srdaserve_model_reloads_total",
			"Successful hot reloads."),
		reloadErrors: reg.NewCounter("srdaserve_model_reload_errors_total",
			"Failed hot-reload attempts."),
		queueRejects: reg.NewCounter("srdaserve_queue_rejects_total",
			"Samples rejected because the queue was full."),
	}
	reg.NewGaugeFunc("srdaserve_queue_depth",
		"Samples currently queued for dispatch.", queueDepth)
	reg.NewGaugeFunc("srdaserve_model_seq",
		"Monotonic sequence number of the live model.", modelSeq)
	mx.latencySketch = obs.NewQuantileSketch()
	reg.NewGaugeFloatFunc("srdaserve_request_latency_p50",
		"Streaming median predict latency in seconds (CKMS sketch, 1% rank error).",
		func() float64 { return mx.latencySketch.Query(0.5) })
	reg.NewGaugeFloatFunc("srdaserve_request_latency_p95",
		"Streaming 95th-percentile predict latency in seconds (CKMS sketch, 0.5% rank error).",
		func() float64 { return mx.latencySketch.Query(0.95) })
	reg.NewGaugeFloatFunc("srdaserve_request_latency_p99",
		"Streaming 99th-percentile predict latency in seconds (CKMS sketch, 0.1% rank error).",
		func() float64 { return mx.latencySketch.Query(0.99) })
	return mx
}

// writeProm renders the Prometheus text exposition format.
func (mx *metrics) writeProm(w io.Writer) { mx.reg.WritePrometheus(w) }
