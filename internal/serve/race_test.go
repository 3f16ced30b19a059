//go:build race

package serve

// raceEnabled shortens single-goroutine sweeps, which the race detector
// only slows down.
const raceEnabled = true
