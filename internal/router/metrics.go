package router

import "srda/internal/obs"

// metrics is the router's instrument set on its own obs registry, kept
// separate from the worker instruments so a co-located process exposes
// both without collisions.  Registration order is exposition order; new
// instruments go at the end.
type metrics struct {
	reg           *obs.Registry
	requests      *obs.CounterVec // replica, code
	shed          *obs.CounterVec // reason, tenant
	backendErrors *obs.CounterVec // replica
	forward       *obs.Histogram  // routed predict seconds, admission → backend reply
}

func newMetrics(healthy func() int64) *metrics {
	reg := obs.NewRegistry()
	mx := &metrics{
		reg: reg,
		requests: reg.NewCounterVec("srdaroute_requests_total",
			"Routed predict requests by backend replica and status code.", "replica", "code"),
		shed: reg.NewCounterVec("srdaroute_shed_total",
			"Requests shed before reaching a backend, by reason (quota, overload, no_backend) and tenant.", "reason", "tenant"),
		backendErrors: reg.NewCounterVec("srdaroute_backend_errors_total",
			"Forwarded requests the backend failed (a 5xx reply or a transport error), by replica.", "replica"),
		forward: reg.NewHistogram("srdaroute_forward_seconds",
			"Routed predict latency from admission to backend reply.",
			[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}),
	}
	reg.NewGaugeFunc("srdaroute_healthy_replicas",
		"Replicas passing their health checks, which are the replicas on the hash ring.", healthy)
	return mx
}

// bindTenantLatency registers the per-tenant forward-latency quantile
// gauge families; separate from newMetrics because the router (which
// owns the sketches) must exist first.
func (m *metrics) bindTenantLatency(r *Router) {
	m.reg.NewGaugeVecFunc("srdaroute_tenant_latency_p50",
		"Streaming median routed-predict latency per tenant in seconds (CKMS sketch).",
		[]string{"tenant"}, func() []obs.GaugeSample { return r.tenantLatencySamples(0.5) })
	m.reg.NewGaugeVecFunc("srdaroute_tenant_latency_p99",
		"Streaming 99th-percentile routed-predict latency per tenant in seconds (CKMS sketch).",
		[]string{"tenant"}, func() []obs.GaugeSample { return r.tenantLatencySamples(0.99) })
}
