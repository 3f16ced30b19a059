package online

import "srda/internal/obs"

// metrics is the trainer's instrument set on its own obs registry, so a
// worker can append the exposition to its /metrics without colliding
// with the serve or registry instruments.  Registration order is
// exposition order; new instruments go at the end.
type metrics struct {
	reg           *obs.Registry
	samples       *obs.Counter
	refits        *obs.Counter
	refitFailures *obs.Counter
	rollbacks     *obs.Counter
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg: reg,
		samples: reg.NewCounter("srdaonline_samples_total",
			"Labeled samples observed by the streaming trainer (training + holdout)."),
		refits: reg.NewCounter("srdaonline_refits_total",
			"Refit attempts (triggered or manual)."),
		refitFailures: reg.NewCounter("srdaonline_refit_failures_total",
			"Refits that produced no published model (solve or publish failure)."),
		rollbacks: reg.NewCounter("srdaonline_rollbacks_total",
			"Published candidates rolled back after failing validation."),
	}
}

// bind registers the drift gauge, which reads live trainer state;
// separate from newMetrics because the trainer must exist first.
func (m *metrics) bind(t *StreamTrainer) {
	m.reg.NewGaugeFloatFunc("srdaonline_drift_score",
		"Current windowed class-mean drift score against the last refit's means.",
		t.DriftScore)
}
