package lint

import "go/ast"

// GoroutineDiscipline bans raw go statements outside the packages that
// legitimately own concurrency.  Kernel fan-out must go through
// internal/pool: its idle-worker handoff with inline fallback is what
// makes nested fork-joins deadlock-free and keeps the process on one
// GOMAXPROCS budget, and its contiguous-span sharding is what the bitwise
// determinism proof rests on.  A raw goroutine anywhere else bypasses all
// three guarantees.
//
// Allowed: internal/pool (the mechanism), the serving tier —
// internal/serve (owns the connection/dispatch lifecycle),
// internal/router (health sweeps), internal/registry,
// internal/telemetry (the federation poller) — and main packages (cmd/
// and examples/ own their process lifecycle).  Test files are not
// checked.
var GoroutineDiscipline = &Analyzer{
	Name: "goroutine-discipline",
	Doc:  "raw go statements are confined to internal/pool, the serving tier (serve, router, registry, telemetry), and main packages",
	Run:  runGoroutineDiscipline,
}

func runGoroutineDiscipline(pass *Pass) {
	if pass.Pkg.Name == "main" || underAny(pass.Pkg.RelDir, goroutineOwners) {
		return
	}
	pass.inspectFiles(func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			pass.Reportf(g.Pos(), "raw go statement in library package %s; route fan-out through internal/pool so worker budgets and the determinism contract hold", pass.Pkg.Path)
		}
		return true
	})
}
