package serve

import (
	"strings"
	"testing"
)

// TestMetricsExpositionGolden pins the /metrics output byte-for-byte.
// This is the compatibility contract for the migration onto internal/obs:
// any change to metric names, help strings, ordering, label rendering, or
// bucket formatting is an exposition regression and fails here.  The
// observed values are dyadic rationals so the %g-rendered sums are exact.
func TestMetricsExpositionGolden(t *testing.T) {
	mx := newMetrics(func() int64 { return 3 }, func() int64 { return 2 })
	mx.requests.With("/v1/predict", "200").Inc()
	mx.requests.With("/v1/predict", "200").Inc()
	mx.requests.With("/v1/predict", "400").Inc()
	mx.requests.With("/healthz", "200").Inc()
	mx.latencySketch.Observe(0.001953125) // 2^-9: renders exactly
	mx.latencySketch.Observe(0.25)
	mx.batchSize.Observe(2)
	mx.batchSize.Observe(5)
	mx.samples.Add(7)
	mx.batches.Add(2)
	mx.queueRejects.Add(4)

	var sb strings.Builder
	mx.writeProm(&sb)
	const golden = `# HELP srdaserve_requests_total HTTP requests by endpoint and status code.
# TYPE srdaserve_requests_total counter
srdaserve_requests_total{endpoint="/healthz",code="200"} 1
srdaserve_requests_total{endpoint="/v1/predict",code="200"} 2
srdaserve_requests_total{endpoint="/v1/predict",code="400"} 1
# HELP srdaserve_batch_size Samples coalesced per inference batch.
# TYPE srdaserve_batch_size histogram
srdaserve_batch_size_bucket{le="1"} 0
srdaserve_batch_size_bucket{le="2"} 1
srdaserve_batch_size_bucket{le="4"} 1
srdaserve_batch_size_bucket{le="8"} 2
srdaserve_batch_size_bucket{le="16"} 2
srdaserve_batch_size_bucket{le="32"} 2
srdaserve_batch_size_bucket{le="64"} 2
srdaserve_batch_size_bucket{le="128"} 2
srdaserve_batch_size_bucket{le="256"} 2
srdaserve_batch_size_bucket{le="+Inf"} 2
srdaserve_batch_size_sum 7
srdaserve_batch_size_count 2
# HELP srdaserve_samples_total Samples predicted.
# TYPE srdaserve_samples_total counter
srdaserve_samples_total 7
# HELP srdaserve_batches_total Inference batches dispatched.
# TYPE srdaserve_batches_total counter
srdaserve_batches_total 2
# HELP srdaserve_model_reload_errors_total Failed hot-reload attempts.
# TYPE srdaserve_model_reload_errors_total counter
srdaserve_model_reload_errors_total 0
# HELP srdaserve_queue_rejects_total Samples rejected because the queue was full.
# TYPE srdaserve_queue_rejects_total counter
srdaserve_queue_rejects_total 4
# HELP srdaserve_queue_depth Samples currently queued for dispatch.
# TYPE srdaserve_queue_depth gauge
srdaserve_queue_depth 3
# HELP srdaserve_model_seq Monotonic sequence number of the live model.
# TYPE srdaserve_model_seq gauge
srdaserve_model_seq 2
# HELP srdaserve_request_latency_p99 Streaming 99th-percentile predict latency in seconds (CKMS sketch, 0.1% rank error).
# TYPE srdaserve_request_latency_p99 gauge
srdaserve_request_latency_p99 0.25
`
	if sb.String() != golden {
		t.Fatalf("exposition regression.\n--- got ---\n%s\n--- want ---\n%s", sb.String(), golden)
	}
}
