package telemetry

import "time"

// StartPoller is the corpus stand-in for the telemetry sampler:
// internal/telemetry is on the goroutine-owner allowlist, so draining
// a caller-owned tick channel from a background goroutine is allowed.
func StartPoller(ticks <-chan time.Time, stop <-chan struct{}, fn func(time.Time)) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case t := <-ticks:
				fn(t)
			case <-stop:
				return
			}
		}
	}()
	return done
}
