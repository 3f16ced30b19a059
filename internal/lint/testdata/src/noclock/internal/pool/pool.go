package pool

import "time"

// Wait times a queue handoff with a raw clock read — the pool sits on
// the numeric call path and must use obs.Stamp instead.
func Wait() time.Duration {
	start := time.Now()      // want "time.Now in package"
	return time.Since(start) // want "time.Since in package"
}
