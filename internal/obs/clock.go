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
