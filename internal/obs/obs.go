// Package obs is the repository's unified observability layer: a
// dependency-free metrics registry with Prometheus text exposition,
// request-scoped span tracing shared by training and serving, and helpers
// for CPU/heap profiling, runtime tracing, and structured JSON run reports.
//
// The package exists to make the paper's per-stage cost claims
// observable end to end.  Three design rules keep it compatible with the
// kernel determinism contract enforced by srdalint (doc/LINTING.md):
//
//   - obs is the sole sanctioned clock owner.  Numeric packages never
//     call time.Now themselves (the noclock analyzer bans it); they
//     open children of a caller-provided *ReqSpan whose Tracer's clock
//     was injected by the CLI or test that owns the run.  internal/pool
//     measures its queue-wait through Stamp for the same reason.
//   - Instruments are wait-free on the hot path: counters and histogram
//     observations are single atomic operations, so instrumenting a
//     kernel call-site never serializes the worker pool.
//   - Exposition is deterministic: metrics render in registration order
//     and vector labels render in sorted order, so /metrics output is
//     reproducible and golden-testable (internal/serve pins its
//     pre-migration byte format that way).
//
// Two registries exist in practice: Default() collects process-wide
// instruments (the worker pool's), while subsystems that need isolation
// (one serve.Server per test, say) create their own via NewRegistry and
// expose both.  See doc/OBSERVABILITY.md for the full model.
package obs
