package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"srda/internal/lint/graph"
)

// This file is the bridge between the analyzer suite and the call graph
// in internal/lint/graph.  Run builds the graph once per module, marks
// the transitive closure of "hot" functions reachable from the kernel
// entry points, and hands the result to the analyzers, which use it to
// fire *through* call chains: a helper that allocates, reads the clock,
// draws randomness, or ranges over a map is a violation when a hot
// kernel reaches it, no matter which package the helper lives in.

// interproc is the per-module interprocedural state, cached on Module.
type interproc struct {
	g *graph.Graph
	// nodesByPkg groups nodes by declaring package path so per-package
	// analyzer passes report findings in their own package.
	nodesByPkg map[string][]*graph.Node
	// allocMemo caches each node's first direct allocation (nil when the
	// body is allocation-free); allocDone marks computed entries.
	allocMemo map[*graph.Node]*allocSite
	allocDone map[*graph.Node]bool
}

// allocOf returns the node's first direct heap allocation, memoized.
func (ip *interproc) allocOf(n *graph.Node) *allocSite {
	if ip.allocDone[n] {
		return ip.allocMemo[n]
	}
	ip.allocDone[n] = true
	a := firstDirectAlloc(n.Pkg.Info, n)
	ip.allocMemo[n] = a
	return a
}

// ensureInterproc builds the call graph and hot marking on first use.
func (m *Module) ensureInterproc() *interproc {
	if m.ip != nil {
		return m.ip
	}
	pkgs := make([]*graph.Package, 0, len(m.Pkgs))
	for _, p := range m.Pkgs {
		pkgs = append(pkgs, &graph.Package{
			Path:   p.Path,
			RelDir: p.RelDir,
			Files:  p.Files,
			Types:  p.Types,
			Info:   p.Info,
		})
	}
	g := graph.Build(m.Fset, pkgs)
	g.MarkHot(isHotEntry)
	ip := &interproc{
		g:          g,
		nodesByPkg: make(map[string][]*graph.Node),
		allocMemo:  make(map[*graph.Node]*allocSite),
		allocDone:  make(map[*graph.Node]bool),
	}
	for _, n := range g.Nodes {
		ip.nodesByPkg[n.Pkg.Path] = append(ip.nodesByPkg[n.Pkg.Path], n)
	}
	m.ip = ip
	return ip
}

// hotNodes returns the hot nodes declared in the pass's package.
func (p *Pass) hotNodes() []*graph.Node {
	ip := p.Module.ensureInterproc()
	var out []*graph.Node
	for _, n := range ip.nodesByPkg[p.Pkg.Path] {
		if n.Hot {
			out = append(out, n)
		}
	}
	return out
}

// graphOf returns the module's call graph.
func (p *Pass) graphOf() *graph.Graph { return p.Module.ensureInterproc().g }

// cholEntryMethods are the Cholesky solve methods that sit on the refit
// hot path (the online trainer calls them per refit, the primal fit per
// train).
var cholEntryMethods = map[string]bool{
	"SolveVec": true, "Solve": true,
}

// isHotEntry decides whether a function is a kernel entry point: the
// batch-predict surface (PredictBatch*/ProjectBatch* and their Ctx
// variants, wherever declared), every exported Par* kernel in the kernel
// packages, and the LSQR/Cholesky inner solves.  The hot closure is
// everything these reach.
func isHotEntry(n *graph.Node) bool {
	name := n.Func.Name()
	if strings.HasPrefix(name, "PredictBatch") || strings.HasPrefix(name, "ProjectBatch") {
		return true
	}
	rel := n.Pkg.RelDir
	if underAny(rel, kernelDirs) {
		if _, ok := parTwinName(name); ok && n.Func.Exported() {
			return true
		}
	}
	if underAny(rel, []string{"internal/solver"}) && (name == "LSQR" || name == "LockstepLSQR" || name == "ParLockstepLSQR" || name == "CGNE") {
		return true
	}
	if underAny(rel, []string{"internal/decomp"}) {
		if name == "NewCholesky" || name == "ParCholesky" ||
			name == "SolveUpperTranspose" || name == "SolveUpperVec" {
			return true
		}
		if recv := n.Func.Type().(*types.Signature).Recv(); recv != nil && cholEntryMethods[name] {
			if named, ok := derefNamed(recv.Type()); ok && named.Obj().Name() == "Cholesky" {
				return true
			}
		}
	}
	return false
}

// derefNamed unwraps a pointer receiver to its named type.
func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return n, ok
}

// funcDisplayName renders a function for diagnostics with the module
// path stripped: "blas.ParGemm", "(*core.Model).PredictBatch".
func (m *Module) funcDisplayName(fn *types.Func) string {
	name := fn.FullName()
	name = strings.ReplaceAll(name, m.Path+"/internal/", "")
	name = strings.ReplaceAll(name, m.Path+"/", "")
	// The root package keeps its package-clause name for readability.
	if fn.Pkg() != nil && fn.Pkg().Path() == m.Path && !strings.Contains(name, ".") {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// chainString renders a call path as "a → b → c" for diagnostics.
func (m *Module) chainString(start *graph.Node, path []graph.Edge) string {
	parts := []string{m.funcDisplayName(start.Func)}
	for _, e := range path {
		parts = append(parts, m.funcDisplayName(e.Callee.Func))
	}
	return strings.Join(parts, " → ")
}

// ---- per-node fact walks shared by the interprocedural analyzers ----

// allocSite is one heap-allocating construct found in a function body.
type allocSite struct {
	pos  token.Pos
	what string
}

// directAllocs returns the heap-allocating constructs in a node's body
// (function literals included): make/append/new, fmt calls, function
// literals (closure allocation), and composite literals that are
// heap-bound — address-taken (&T{...}) or of slice/map type.  A plain
// value composite (T{...}) is stack-allocated and deliberately not
// counted here, unlike in the intraprocedural innermost-loop check where
// any per-iteration composite is suspect.
func directAllocs(info *types.Info, n *graph.Node) []allocSite {
	var out []allocSite
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "append", "new":
						out = append(out, allocSite{e.Pos(), b.Name()})
					}
				}
				return true
			}
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
					out = append(out, allocSite{e.Pos(), "fmt." + fn.Name()})
				}
			}
		case *ast.FuncLit:
			out = append(out, allocSite{e.Pos(), "func literal (closure allocation)"})
			return true // keep walking: literals may allocate too
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					out = append(out, allocSite{e.X.Pos(), "&composite literal"})
					return false
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[e]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					out = append(out, allocSite{e.Pos(), "slice/map literal"})
				}
			}
		}
		return true
	})
	return out
}

// firstDirectAlloc returns the first allocating construct, or nil.
func firstDirectAlloc(info *types.Info, n *graph.Node) *allocSite {
	if s := directAllocs(info, n); len(s) > 0 {
		return &s[0]
	}
	return nil
}

// infoFor finds the go/types Info for a node's package.
func (m *Module) infoFor(n *graph.Node) *types.Info { return n.Pkg.Info }

// clockReads returns the wall-clock reads (the noclock clockFuncs set)
// in a node's body, as (pos, "time.Now") pairs.
func clockReads(info *types.Info, n *graph.Node) []allocSite {
	var out []allocSite
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || !isClockRead(fn) {
			return true
		}
		out = append(out, allocSite{sel.Pos(), "time." + fn.Name()})
		return true
	})
	return out
}

// randMethodCalls returns calls of methods on math/rand (or v2) values —
// r.Float64(), src.Uint64() — in a node's body.  Package-level global
// rand calls are the intraprocedural seeded-rand analyzer's job; the
// method calls here are the ones that are legal elsewhere but banned
// inside the hot closure, where kernels must be randomness-free
// regardless of seeding.
func randMethodCalls(info *types.Info, n *graph.Node) []allocSite {
	var out []allocSite
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return true
		}
		out = append(out, allocSite{sel.Pos(), fmt.Sprintf("(*rand).%s", fn.Name())})
		return true
	})
	return out
}

// loopRanges collects the [start, end] position ranges of every
// innermost-loop body in a node's declaration (closures walked too).
func innermostLoopBodies(n *graph.Node) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		body := loopBody(x)
		if body != nil && !containsLoop(body) {
			out = append(out, body)
		}
		return true
	})
	return out
}

// edgesWithin returns the node's outgoing edges whose call site lies
// inside the given block.
func edgesWithin(n *graph.Node, body *ast.BlockStmt) []graph.Edge {
	var out []graph.Edge
	for _, e := range n.Out {
		if e.Pos >= body.Pos() && e.Pos <= body.End() {
			out = append(out, e)
		}
	}
	return out
}
