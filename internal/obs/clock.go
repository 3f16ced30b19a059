package obs

import "time"

// Clock supplies the current time to a Tracer.  Injecting it keeps clock
// reads out of the numeric packages (the noclock contract): the CLI or
// test that owns a run constructs the Tracer — with the real clock or a
// fake — and the instrumented code only ever calls span methods.
type Clock func() time.Time

// SystemClock returns the wall clock as an injectable Clock.  Packages
// under the noclock contract (the online trainer's interval trigger in
// particular) take a Clock from their caller instead of reading package
// time; the process entry points pass this one, tests pass a fake.
func SystemClock() Clock { return time.Now }

// Stamp is an opaque start-time capture for code that may not read the
// clock itself (internal/pool's queue-wait measurement).  The clock read
// stays inside obs, the sanctioned owner.
type Stamp struct{ t time.Time }

// NowStamp captures the current time.
func NowStamp() Stamp { return Stamp{t: time.Now()} }

// Elapsed returns the time since the stamp was captured (monotonic).
func (s Stamp) Elapsed() time.Duration { return time.Since(s.t) }

// Seconds returns Elapsed as seconds.
func (s Stamp) Seconds() float64 { return s.Elapsed().Seconds() }
