package router

import "srda/internal/obs"

// metrics is the router's instrument set on its own obs registry, kept
// separate from the worker instruments so a co-located process exposes
// both without collisions.  Registration order is exposition order; new
// instruments go at the end.  No label takes a client-chosen value
// unchecked: the tenant label below names only models that answered.
type metrics struct {
	reg      *obs.Registry
	requests *obs.CounterVec // replica, code
	shed     *obs.CounterVec // reason
}

func newMetrics(healthy func() int64) *metrics {
	reg := obs.NewRegistry()
	mx := &metrics{
		reg: reg,
		requests: reg.NewCounterVec("srdaroute_requests_total",
			"Routed predict requests by backend replica and status code.", "replica", "code"),
		shed: reg.NewCounterVec("srdaroute_shed_total",
			"Requests shed before reaching a backend, by reason (quota, overload, no_backend).", "reason"),
	}
	reg.NewGaugeFunc("srdaroute_healthy_replicas",
		"Replicas passing their health checks, which are the replicas on the hash ring.", healthy)
	return mx
}

// bindTenantLatency registers the per-tenant forward-latency quantile
// gauge family; separate from newMetrics because the router (which owns
// the sketches) must exist first.
func (m *metrics) bindTenantLatency(r *Router) {
	m.reg.NewGaugeVecFunc("srdaroute_tenant_latency_p99",
		"Streaming 99th-percentile latency of successful routed predicts per tenant in seconds (CKMS sketch).",
		[]string{"tenant"}, r.tenantP99Samples)
}
