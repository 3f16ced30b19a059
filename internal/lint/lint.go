// Package lint is srdalint: a from-scratch, stdlib-only static-analysis
// suite (go/parser + go/ast + go/types + go/importer) that mechanically
// enforces this repository's kernel determinism contract.
//
// The SRDA reproduction's claim to linear time only survives in practice
// if the hot kernels stay allocation-disciplined, the parallel twins stay
// bitwise-identical to their sequential versions, and every source of
// nondeterminism (goroutines, clocks, unseeded randomness) is confined to
// the few packages allowed to own it.  doc/PERFORMANCE.md states that
// contract in prose; this package states it as thirteen analyzers that run
// over the whole module on every `make check`:
//
//   - goroutine-discipline: no raw go statements outside internal/pool,
//     internal/serve, and main packages — kernel fan-out goes through the
//     shared pool so nesting can never deadlock and worker budgets hold.
//   - floatcmp: no ==/!= with floating-point operands; exact-zero and
//     exact-one guards that are part of a kernel's contract carry an
//     explicit suppression with a reason.
//   - seeded-rand: every math/rand source is built by
//     rand.New(rand.NewSource(seed)) with the seed threaded from options
//     or flags; the global generator is off-limits outside tests.
//   - partwin: every exported Par* kernel in the kernel packages has a
//     same-package sequential twin and a _test.go file pairing it with a
//     math.Float64bits equivalence check.
//   - hotalloc: no make/append/new/composite-literal or fmt allocations
//     inside the innermost loops of kernel-package function bodies.
//   - noclock: no wall-clock reads (time.Now and friends) inside the
//     numeric packages or internal/pool; internal/obs is the single
//     sanctioned clock owner, and instrumented code records through the
//     obs.ReqSpan handles it vends.  Other timing belongs to the bench
//     and experiment layers.
//   - errdrop: no silently discarded error returns outside tests; an
//     explicit `_ =` is required where dropping is intentional.
//   - rawlog: no package log (and no fmt.Fprint* to os.Stderr) in library
//     packages — diagnostics flow through the structured, level-gated,
//     trace-correlated obs.Logger; main packages and internal/obs itself
//     are exempt.
//   - maprange: no map iteration on the deterministic-output paths
//     (exposition, serialization, routing, refit ordering) unless the
//     keys are collected and sorted first.
//   - lockcheck: no mutex held across a blocking call, channel operation,
//     or hot-kernel invocation, and no lock values copied by assignment,
//     range, or parameter passing.
//   - ctxflow: serve- and kernel-path contexts carry spans only — no
//     cancellation-sensitive calls in kernels, no cancellable context
//     construction on the serve path, no go-in-loop spawns.
//   - traceheader: the W3C Traceparent propagation header is written
//     only by obs.InjectTrace; an ad-hoc Header.Set/Add with that key
//     detaches the downstream subtree from the request's trace.
//     internal/obs, as the propagation implementation, is exempt.
//   - bodylimit: HTTP request and response bodies are read only through
//     serve.ReadRequestBody and serve.ReadReply; a raw io.ReadAll or an
//     encoding/* decoder on a Body field buffers whatever the peer sends.
//
// Several rules are interprocedural.  internal/lint/graph builds a
// module-wide call graph (direct calls, method calls with interface
// fan-out, function values handed to pool.Do and friends) and marks the
// transitive closure of functions reachable from the kernel entry points
// — the batch-predict surface, the exported Par* kernels, and the
// LSQR/Cholesky inner solves.  hotalloc, noclock, seeded-rand, maprange,
// and ctxflow all fire through that closure: a helper in any package
// becomes kernel code the moment a kernel can reach it.
//
// Findings can be suppressed per line with
//
//	//srdalint:ignore <analyzer> <reason>
//
// either trailing the offending line or on its own line immediately
// above.  The reason is mandatory; a malformed suppression is itself a
// finding, and so is a stale one — a suppression whose analyzer no
// longer fires on the covered line is reported so silenced findings
// cannot outlive the code that earned them.  There is deliberately no
// -fix mode: every suppression is a reviewed, explained decision in the
// diff.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer checks one rule over one package at a time.
type Analyzer struct {
	// Name is the identifier used in output and suppression comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects pass.Pkg and reports findings through pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Module   *Module
	Pkg      *Package
	analyzer *Analyzer
	sink     *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Module.Fset.Position(pos)
	*p.sink = append(*p.sink, Diagnostic{
		Analyzer: p.analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, addressed by absolute file position.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// Analyzers is the full srdalint suite in reporting order.
var Analyzers = []*Analyzer{
	GoroutineDiscipline,
	FloatCmp,
	SeededRand,
	PartWin,
	HotAlloc,
	NoClock,
	ErrDrop,
	RawLog,
	MapRange,
	LockCheck,
	CtxFlow,
	TraceHeader,
	BodyLimit,
}

// AnalyzerByName returns the analyzer with the given name, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the given analyzers over every package of mod, applies
// //srdalint:ignore suppressions, and returns the surviving diagnostics
// sorted by file, line, column, and analyzer.  Malformed suppression
// comments are reported under the pseudo-analyzer "suppress", and so are
// stale ones: a well-formed suppression for an analyzer in this run whose
// covered line no longer produces a matching finding is dead weight that
// would silently swallow the next regression on that line.
func Run(mod *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range mod.Pkgs {
		for _, a := range analyzers {
			pass := &Pass{Module: mod, Pkg: pkg, analyzer: a, sink: &diags}
			a.Run(pass)
		}
	}
	sup, malformed, wellFormed := collectSuppressions(mod)
	// Staleness is judged against the pre-filter diagnostics: a
	// suppression is live exactly when the analyzer it names still fires
	// on the line it covers.
	stale := staleSuppressions(diags, wellFormed, analyzers)
	kept := diags[:0]
	for _, d := range diags {
		if !sup.covers(d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, malformed...)
	kept = append(kept, stale...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// ---- package-policy helpers shared by the analyzers ----

// kernelDirs are the packages holding the hot numeric kernels whose
// parallel twins and allocation discipline the contract is about.
var kernelDirs = []string{"internal/blas", "internal/mat", "internal/sparse"}

// numericDirs are all packages that compute on floats; wall-clock reads
// are banned here so results never depend on timing.
var numericDirs = []string{
	"internal/blas", "internal/mat", "internal/sparse",
	"internal/solver", "internal/decomp", "internal/regress",
	"internal/lda", "internal/kernel", "internal/flam",
	"internal/idrqr", "internal/graph", "internal/cluster",
	"internal/core", "internal/classify",
}

// goroutineOwners are the only library packages allowed to start
// goroutines directly: the worker pool itself and the serving tier —
// workers (internal/serve, dispatch lifecycle), the router
// (internal/router, health sweeps and the background check loop), the
// registry they share (internal/registry), and the telemetry plane
// (internal/telemetry, whose StartPoller drains a caller-owned tick
// channel).  The streaming trainer (internal/online) is not one: every
// refit runs inside the call that triggered it.
var goroutineOwners = []string{
	"internal/pool", "internal/serve",
	"internal/router", "internal/registry",
	"internal/telemetry",
}

// underAny reports whether rel equals one of dirs or lies beneath one.
func underAny(rel string, dirs []string) bool {
	for _, d := range dirs {
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// isKernelPkg reports whether pkg is one of the kernel packages.
func isKernelPkg(pkg *Package) bool { return underAny(pkg.RelDir, kernelDirs) }

// isNumericPkg reports whether pkg computes on floats.
func isNumericPkg(pkg *Package) bool { return underAny(pkg.RelDir, numericDirs) }

// inspectFiles walks every non-test file of the pass's package.
func (p *Pass) inspectFiles(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}
