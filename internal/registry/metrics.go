package registry

import "srda/internal/obs"

// metrics is the registry's instrument set on its own obs registry, so a
// worker can append the exposition to its /metrics without colliding
// with the serve instruments.  Both instruments size the LRU byte
// budget.  Registration order is exposition order; new instruments go
// at the end.
type metrics struct {
	reg       *obs.Registry
	evictions *obs.Counter
}

// newMetrics registers the instruments; bytes is sampled at exposition.
func newMetrics(bytes func() int64) *metrics {
	reg := obs.NewRegistry()
	mx := &metrics{
		reg: reg,
		evictions: reg.NewCounter("srdareg_evictions_total",
			"Models evicted by the LRU byte budget."),
	}
	reg.NewGaugeFunc("srdareg_bytes",
		"Estimated resident bytes of all live model versions.", bytes)
	return mx
}
