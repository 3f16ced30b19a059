package lint

import (
	"go/ast"
	"go/types"
)

// NoClock bans wall-clock reads on the numeric side of the repo.  A
// kernel or solver that consults time.Now — for an adaptive cutoff, a
// progress heuristic, a "give up after N seconds" guard — produces
// results that depend on machine load, which is exactly the
// nondeterminism the equivalence suites cannot catch (both twins would
// wobble together).
//
// Since the interprocedural engine landed, the ban also follows call
// chains: a function in *any* package that the call graph reaches from a
// kernel entry point (the hot closure) may not read the clock either,
// because a helper becomes numeric code the moment a kernel calls it.
//
// internal/obs is the single sanctioned clock owner: it wraps the clock
// behind injectable obs.Clock values and hands out obs.ReqSpan spans
// that instrumented code records into without ever touching package
// time.  The scope of the ban is every numeric package plus
// internal/pool; other timing lives in the layers that report it — cmd/srdabench, the
// experiment runner, the serving metrics.  Test files are not checked.
var NoClock = &Analyzer{
	Name: "noclock",
	Doc:  "no time.Now/time.Since (or timers) outside internal/obs on the numeric side",
	Run:  runNoClock,
}

// clockOwners are the packages sanctioned to read the wall clock within
// the noclock scope.  Keep this to internal/obs: adding a package here
// means its outputs may legitimately depend on when they ran.
var clockOwners = []string{"internal/obs"}

// noClockExtraDirs extends the ban beyond the numeric packages to the
// infrastructure on the numeric call path, which must route timing
// through internal/obs instead of reading the clock itself.  The
// streaming trainer (internal/online) is here because its interval
// trigger must fire off an injected obs.Clock — a direct time.Now would
// make refit timing untestable and nondeterministic.  The telemetry
// plane (internal/telemetry) is here because its whole contract is
// byte-deterministic replay: ingest, federation, and SLO evaluation
// take explicit times or an injected obs.Clock, and the sampler
// consumes a tick channel its caller owns.
var noClockExtraDirs = []string{"internal/pool", "internal/obs", "internal/online", "internal/telemetry"}

// inNoClockScope reports whether pkg is subject to the wall-clock ban.
func inNoClockScope(pkg *Package) bool {
	if underAny(pkg.RelDir, clockOwners) {
		return false
	}
	return isNumericPkg(pkg) || underAny(pkg.RelDir, noClockExtraDirs)
}

// clockFuncs are the package time entry points that read or depend on the
// wall clock or scheduler.
var clockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Sleep":     true,
}

// isClockRead reports whether fn is a banned package-level clock entry
// point.  Methods are excluded on purpose: t.After(u), t.Sub(u) and
// friends on a time.Time value are pure timestamp arithmetic — only
// the package functions (time.After, time.Now, ...) touch the wall
// clock or scheduler, and sharing a name with a method must not drag
// the method into the ban.
func isClockRead(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "time" || !clockFuncs[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

func runNoClock(pass *Pass) {
	info := pass.Pkg.Info
	if inNoClockScope(pass.Pkg) {
		pass.inspectFiles(func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || !isClockRead(fn) {
				return true
			}
			pass.Reportf(sel.Pos(), "time.%s in package %s makes results depend on wall-clock timing; internal/obs owns the clock — open a child of an obs.ReqSpan, or measure in cmd/srdabench or the experiment layer", fn.Name(), pass.Pkg.Path)
			return true
		})
		return
	}
	// Interprocedural: a package outside the static scope still may not
	// read the clock from a function the kernel entry points reach — a
	// helper in any package becomes numeric code the moment a hot kernel
	// calls it.  internal/obs stays the sanctioned owner.
	if underAny(pass.Pkg.RelDir, clockOwners) {
		return
	}
	mod := pass.Module
	for _, n := range pass.hotNodes() {
		for _, site := range clockReads(info, n) {
			pass.Reportf(site.pos, "%s in %s is on the hot kernel path (reachable from entry %s); results would depend on wall-clock timing — open a child of an obs.ReqSpan, or move the timing to the caller",
				site.what, mod.funcDisplayName(n.Func), mod.funcDisplayName(n.HotVia.Func))
		}
	}
}
