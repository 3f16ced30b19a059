package online

// AsyncRefit stands in for a background refit in the streaming trainer:
// internal/online is not a goroutine owner, since every refit runs
// inside the call that triggered it.
func AsyncRefit(fit func()) chan struct{} {
	done := make(chan struct{})
	go func() { // want "raw go statement in library package"
		fit()
		close(done)
	}()
	return done
}
