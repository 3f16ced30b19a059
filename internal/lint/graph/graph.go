// Package graph builds a static, package-level call graph over the
// type-checked module that internal/lint loads, so the analyzer suite can
// reason *interprocedurally*: a kernel that calls a helper that allocates,
// reads the clock, or ranges over a map is just as much a contract
// violation as a kernel that does so in its own body, and before this
// layer existed such helpers escaped every analyzer.
//
// The graph is deliberately syntactic-plus-types rather than SSA-based:
// it resolves exactly the call shapes this repository uses and documents
// the ones it cannot see.
//
//   - Direct calls to package functions and concrete methods, including
//     qualified cross-package calls (blas.Gemm, obs.StartSpan).
//   - Function and method values passed as arguments — the closure handed
//     to pool.Do, a method value handed to a dispatcher —
//     produce a KindRef edge from the caller, because the callee runs on
//     the caller's behalf even though the call site lives elsewhere.
//   - Function literals are inlined into their enclosing declaration:
//     calls inside a closure are edges of the function that declared the
//     closure.  That matches how the intraprocedural analyzers already
//     treat closures (a loop inside a func literal is a loop) and makes
//     the pool.Do(..., func(lo, hi int) { ... }) idiom flow through
//     naturally.
//   - Calls through an interface method (solver.Operator.Apply above all)
//     fan out to every named module type whose method set implements the
//     interface, as a sound over-approximation of dynamic dispatch.
//
// Known blind spots, accepted to stay stdlib-only and fast: calls through
// plain function-typed variables (f := pick(); f()), methods promoted
// from embedded fields, and reflection.  None of those shapes appear on
// the kernel paths this graph polices, and new ones would be caught by
// review long before they reached a hot loop.
package graph

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Package is one type-checked package's worth of input to Build.  The
// lint loader owns parsing and type-checking; this mirror struct keeps
// the graph free of a dependency on package lint (which imports graph).
type Package struct {
	// Path is the module-qualified import path.
	Path string
	// RelDir is the directory relative to the module root ("" for the
	// root package), the key the lint policy tables use.
	RelDir string
	// Files are the parsed non-test files.
	Files []*ast.File
	// Types and Info are the go/types results for Files.
	Types *types.Package
	Info  *types.Info
}

// Kind classifies how an edge's callee comes to run.
type Kind int

const (
	// KindCall is a direct call of a package function or concrete method.
	KindCall Kind = iota
	// KindRef is a function or method value passed as a call argument
	// (a pool.Do worker body, a registered callback).
	KindRef
	// KindIface is a call through an interface method, resolved to one
	// concrete implementation; one call site yields one KindIface edge
	// per implementing module type.
	KindIface
)

// String names the edge kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindRef:
		return "ref"
	case KindIface:
		return "iface"
	}
	return "call"
}

// Edge is one caller→callee connection at a specific call site.
type Edge struct {
	Callee *Node
	// Pos is the call (or argument) position in the caller's body.
	Pos token.Pos
	// Kind records how the callee is reached.
	Kind Kind
}

// Node is one declared function or method with a body in the module.
type Node struct {
	// Func is the canonical go/types object.
	Func *types.Func
	// Decl is the declaration; its body includes any function literals,
	// whose calls are inlined into this node's edges.
	Decl *ast.FuncDecl
	// Pkg is the declaring package.
	Pkg *Package
	// Out lists the resolved outgoing edges in source order.
	Out []Edge

	// Hot is set by MarkHot on every node reachable from an entry.
	Hot bool
	// Entry is set by MarkHot on the entry nodes themselves.
	Entry bool
	// HotVia is the entry node through which this node was first
	// reached (itself for entries); nil when not hot.  Analyzers use it
	// to name the kernel entry point in diagnostics.
	HotVia *Node
}

// Graph is the module's call graph.
type Graph struct {
	Fset *token.FileSet
	// Nodes lists every declared function in deterministic order:
	// packages in load order, declarations in file/position order.
	Nodes []*Node

	byFunc map[*types.Func]*Node
}

// Build constructs the call graph for the given packages, which must all
// come from one type-checker universe (the lint loader's chained
// importer guarantees that: a *types.Func for blas.Gemm is the same
// object whether seen from its declaration or from a caller in core).
func Build(fset *token.FileSet, pkgs []*Package) *Graph {
	g := &Graph{Fset: fset, byFunc: make(map[*types.Func]*Node)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Func: fn, Decl: fd, Pkg: pkg}
				g.byFunc[fn] = n
				g.Nodes = append(g.Nodes, n)
			}
		}
	}
	ix := buildIfaceIndex(pkgs)
	for _, n := range g.Nodes {
		g.resolveEdges(n, ix)
	}
	return g
}

// NodeOf returns the node declaring fn, or nil for functions without a
// module body (stdlib, interface methods, externally linked).
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.byFunc[fn] }

// resolveEdges walks one declaration (function literals included) and
// records every call and function-value edge whose callee has a node.
func (g *Graph) resolveEdges(n *Node, ix *ifaceIndex) {
	info := n.Pkg.Info
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[fun].(*types.Func); ok {
				g.addEdge(n, fn, call.Pos(), KindCall)
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[fun]; ok {
				if fn, ok := sel.Obj().(*types.Func); ok {
					if types.IsInterface(sel.Recv()) {
						for _, impl := range ix.implementations(sel.Recv(), fn) {
							g.addEdge(n, impl, call.Pos(), KindIface)
						}
					} else {
						g.addEdge(n, fn, call.Pos(), KindCall)
					}
				}
			} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
				// Qualified call of another package's function.
				g.addEdge(n, fn, call.Pos(), KindCall)
			}
		}
		// Function and method values passed as arguments: the callee
		// runs on the caller's behalf (pool.Do(workers, n, shardBody)).
		// Function literals need no edge — their bodies are walked as
		// part of this declaration.
		for _, arg := range call.Args {
			switch a := ast.Unparen(arg).(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[a].(*types.Func); ok {
					g.addEdge(n, fn, a.Pos(), KindRef)
				}
			case *ast.SelectorExpr:
				if fn, ok := info.Uses[a.Sel].(*types.Func); ok {
					g.addEdge(n, fn, a.Pos(), KindRef)
				}
			}
		}
		return true
	})
}

// addEdge records caller→fn when fn is declared in the module, skipping
// exact duplicates (the same callee at the same position can be seen as
// both a call and a selector use).
func (g *Graph) addEdge(caller *Node, fn *types.Func, pos token.Pos, kind Kind) {
	callee := g.byFunc[fn]
	if callee == nil {
		return
	}
	for _, e := range caller.Out {
		if e.Callee == callee && e.Pos == pos {
			return
		}
	}
	caller.Out = append(caller.Out, Edge{Callee: callee, Pos: pos, Kind: kind})
}

// MarkHot flags every node reachable from the entry predicate, breadth
// first in deterministic node order, recording on each hot node the entry
// through which it was first reached.  Calling MarkHot again resets the
// marking.
func (g *Graph) MarkHot(isEntry func(*Node) bool) {
	var queue []*Node
	for _, n := range g.Nodes {
		n.Hot, n.Entry, n.HotVia = false, false, nil
	}
	for _, n := range g.Nodes {
		if isEntry(n) {
			n.Hot, n.Entry, n.HotVia = true, true, n
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if !e.Callee.Hot {
				e.Callee.Hot = true
				e.Callee.HotVia = n.HotVia
				queue = append(queue, e.Callee)
			}
		}
	}
}

// Find runs a breadth-first search from start and returns the shortest
// edge path to the first node satisfying pred, together with that node.
// A start node satisfying pred yields an empty path.  Cycles are handled;
// (nil, nil) means no reachable node satisfies pred.
func (g *Graph) Find(start *Node, pred func(*Node) bool) ([]Edge, *Node) {
	if pred(start) {
		return []Edge{}, start
	}
	type arrival struct {
		from *Node
		edge Edge
	}
	preds := map[*Node]arrival{}
	seen := map[*Node]bool{start: true}
	queue := []*Node{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if seen[e.Callee] {
				continue
			}
			seen[e.Callee] = true
			preds[e.Callee] = arrival{from: n, edge: e}
			if pred(e.Callee) {
				var path []Edge
				for at := e.Callee; at != start; at = preds[at].from {
					path = append([]Edge{preds[at].edge}, path...)
				}
				return path, e.Callee
			}
			queue = append(queue, e.Callee)
		}
	}
	return nil, nil
}

// ifaceIndex resolves interface method calls to the named module types
// implementing them.
type ifaceIndex struct {
	named []*types.Named
}

func buildIfaceIndex(pkgs []*Package) *ifaceIndex {
	ix := &ifaceIndex{}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				ix.named = append(ix.named, named)
			}
		}
	}
	return ix
}

// implementations returns the concrete module methods a call to iface
// method m may dispatch to, in deterministic declaration order.
func (ix *ifaceIndex) implementations(iface types.Type, m *types.Func) []*types.Func {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, named := range ix.named {
		if types.IsInterface(named.Underlying()) {
			continue
		}
		if !types.Implements(named, it) && !types.Implements(types.NewPointer(named), it) {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if mm := named.Method(i); mm.Name() == m.Name() {
				out = append(out, mm)
			}
		}
	}
	return out
}
