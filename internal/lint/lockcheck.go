package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockCheck enforces two mutex disciplines across the whole module:
//
//  1. No lock value is ever copied.  A copied sync.Mutex (or RWMutex,
//     WaitGroup, Once, Cond — or any struct or array containing one)
//     forks the lock state: the copy guards nothing, and go vet's
//     copylocks cannot be suppressed per-site with a reviewed reason the
//     way this suite requires.  Flagged shapes: value receivers and
//     value parameters of lock-containing types, assignments that copy
//     an existing lock-containing value, and range clauses that copy
//     lock-containing elements.
//
//  2. No mutex is held across a blocking operation or a hot-kernel
//     invocation.  A channel send/receive, a select, time.Sleep, a
//     WaitGroup.Wait, an outbound HTTP call — or a PredictBatch-class
//     kernel that runs for milliseconds — executed between Lock and
//     Unlock stalls every contender and, in the serving tier, turns one
//     slow request into a convoy.  The tracking is lexical and
//     per-function: a Lock (or RLock) on some receiver marks it held
//     until the matching Unlock in the same statement sequence; a
//     deferred Unlock holds it to function end, so everything after the
//     Lock is "under" it.  Snapshot-under-lock-then-compute is the
//     sanctioned pattern (and what registry/serve already do).
//
// Intentional exceptions — a deliberately-held lock around a bounded
// handoff, say — carry //srdalint:ignore lockcheck <reason>.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "no copied lock values; no mutex held across blocking calls, channel ops, or hot kernels",
	Run:  runLockCheck,
}

// syncLockTypes are the sync types whose values must never be copied.
var syncLockTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true, "Cond": true,
}

// containsLockType reports whether a value of type t embeds lock state
// (directly, in a struct field, or in an array element).  Pointers,
// slices, maps, and channels reference rather than embed, so they are
// fine to copy.
func containsLockType(t types.Type) bool {
	return lockTypeWalk(t, make(map[types.Type]bool))
}

func lockTypeWalk(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && syncLockTypes[obj.Name()] {
			return true
		}
		return lockTypeWalk(named.Underlying(), seen)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if lockTypeWalk(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return lockTypeWalk(u.Elem(), seen)
	}
	return false
}

func runLockCheck(pass *Pass) {
	info := pass.Pkg.Info
	runCopyLocks(pass, info)
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkHeldAcross(pass, info, fd)
			}
		}
	}
}

// ---- rule 1: copied lock values ----

func runCopyLocks(pass *Pass, info *types.Info) {
	checkFieldList := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			tv, ok := info.Types[field.Type]
			if !ok {
				continue
			}
			if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
				continue
			}
			if containsLockType(tv.Type) {
				pass.Reportf(field.Pos(), "%s passes %s by value, copying its lock state; take a pointer instead", what, types.TypeString(tv.Type, types.RelativeTo(pass.Pkg.Types)))
			}
		}
	}
	copiesLock := func(e ast.Expr) bool {
		switch ast.Unparen(e).(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		default:
			// Composite literals construct rather than copy, and calls
			// are the callee's problem (flagged at its declaration).
			return false
		}
		tv, ok := info.Types[e]
		if !ok {
			return false
		}
		return containsLockType(tv.Type)
	}
	pass.inspectFiles(func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			checkFieldList(d.Recv, "receiver")
			checkFieldList(d.Type.Params, "parameter")
		case *ast.FuncLit:
			checkFieldList(d.Type.Params, "parameter")
		case *ast.AssignStmt:
			for _, rhs := range d.Rhs {
				if copiesLock(rhs) {
					pass.Reportf(rhs.Pos(), "assignment copies a value containing lock state; share it through a pointer")
				}
			}
		case *ast.RangeStmt:
			if d.Value != nil {
				// A `:=`-defined range variable lives in Defs, not Types.
				var t types.Type
				if tv, ok := info.Types[d.Value]; ok {
					t = tv.Type
				} else if id, ok := d.Value.(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil {
						t = obj.Type()
					} else if obj := info.Uses[id]; obj != nil {
						t = obj.Type()
					}
				}
				if t != nil && containsLockType(t) {
					pass.Reportf(d.Value.Pos(), "range copies lock-containing elements by value; iterate indices or pointers instead")
				}
			}
		}
		return true
	})
}

// ---- rule 2: mutex held across blocking operations ----

// lockMethods classifies the sync locking entry points.
var lockAcquire = map[string]bool{"Lock": true, "RLock": true}
var lockRelease = map[string]string{"Unlock": "Lock", "RUnlock": "RLock"}

// blockingStdlib maps (package path, function/method name) pairs to a
// short description of why the call can block.  Deliberately small:
// these are the shapes that actually appear on this repo's serving and
// training paths.
type blockingKey struct{ pkg, name string }

var blockingStdlib = map[blockingKey]string{
	{"time", "Sleep"}:             "time.Sleep",
	{"sync", "Wait"}:              "sync Wait",
	{"net/http", "Get"}:           "outbound HTTP call",
	{"net/http", "Post"}:          "outbound HTTP call",
	{"net/http", "PostForm"}:      "outbound HTTP call",
	{"net/http", "Head"}:          "outbound HTTP call",
	{"net/http", "Do"}:            "outbound HTTP call",
	{"net", "Dial"}:               "network dial",
	{"net", "DialTimeout"}:        "network dial",
	{"os/exec", "Run"}:            "subprocess wait",
	{"os/exec", "Wait"}:           "subprocess wait",
	{"os/exec", "Output"}:         "subprocess wait",
	{"os/exec", "CombinedOutput"}: "subprocess wait",
}

// heldState tracks which lock expressions are currently held, keyed by
// the rendered receiver expression ("s.mu", "v.rw").
type heldState map[string]token.Pos

func (h heldState) clone() heldState {
	c := make(heldState, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// lockOp decodes a statement-level call on a sync lock: x.Lock(),
// x.RLock(), x.Unlock(), x.RUnlock().  Returns the rendered receiver
// key and the method name.
func lockOp(info *types.Info, call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	name := fn.Name()
	if !lockAcquire[name] {
		if _, rel := lockRelease[name]; !rel {
			return "", "", false
		}
	}
	return types.ExprString(sel.X), name, true
}

// checkHeldAcross walks one function body statement by statement,
// tracking held locks and flagging blocking operations under them.
func checkHeldAcross(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	g := pass.graphOf()
	mod := pass.Module

	// flagBlocking scans one statement's expressions for operations that
	// can block, skipping nested function literals (their bodies run
	// later, not under this lock... unless invoked here, which the
	// literal's own statement walk would need to see — accepted miss).
	flagBlocking := func(stmt ast.Stmt, held heldState) {
		// Name the earliest-acquired lock in the finding; min-by-position
		// keeps the message deterministic regardless of map order.
		var heldKey string
		var heldPos token.Pos
		for k, p := range held {
			if heldKey == "" || p < heldPos || (p == heldPos && k < heldKey) {
				heldKey, heldPos = k, p
			}
		}
		report := func(pos token.Pos, what string) {
			pass.Reportf(pos, "%s while holding %s (locked at line %d); release the lock first or snapshot under it and compute after — a held mutex across a blocking operation stalls every contender",
				what, heldKey, mod.Fset.Position(heldPos).Line)
		}
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.GoStmt:
				// The spawned goroutine does not block this one.
				return false
			case *ast.SendStmt:
				report(e.Pos(), "channel send")
			case *ast.UnaryExpr:
				if e.Op == token.ARROW {
					report(e.Pos(), "channel receive")
				}
			case *ast.SelectStmt:
				report(e.Pos(), "select")
				return false
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
					if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
						if what, ok := blockingStdlib[blockingKey{fn.Pkg().Path(), fn.Name()}]; ok {
							report(e.Pos(), what)
							return true
						}
						if node := g.NodeOf(fn); node != nil && node.Entry {
							report(e.Pos(), "hot kernel "+mod.funcDisplayName(fn)+" invoked")
							return true
						}
					}
				}
				if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
					if fn, ok := info.Uses[id].(*types.Func); ok {
						if node := g.NodeOf(fn); node != nil && node.Entry {
							report(e.Pos(), "hot kernel "+mod.funcDisplayName(fn)+" invoked")
						}
					}
				}
			}
			return true
		})
	}

	var walk func(stmts []ast.Stmt, held heldState)
	walk = func(stmts []ast.Stmt, held heldState) {
		for _, stmt := range stmts {
			switch s := stmt.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					if key, method, ok := lockOp(info, call); ok {
						if lockAcquire[method] {
							held[key] = call.Pos()
						} else {
							delete(held, key)
						}
						continue
					}
				}
				if len(held) > 0 {
					flagBlocking(s, held)
				}
			case *ast.DeferStmt:
				// defer x.Unlock(): held to function end by design; the
				// lock stays in the held set so everything after the
				// acquire is checked.  Other defers are not "under" the
				// lock at this point — skip them.
				continue
			case *ast.LabeledStmt:
				walk([]ast.Stmt{s.Stmt}, held)
			case *ast.BlockStmt:
				walk(s.List, held)
			case *ast.IfStmt:
				if len(held) > 0 {
					if s.Init != nil {
						flagBlocking(s.Init, held)
					}
					flagBlocking(&ast.ExprStmt{X: s.Cond}, held)
				}
				walk(s.Body.List, held.clone())
				if s.Else != nil {
					walk([]ast.Stmt{s.Else}, held.clone())
				}
			case *ast.ForStmt:
				if len(held) > 0 && s.Cond != nil {
					flagBlocking(&ast.ExprStmt{X: s.Cond}, held)
				}
				walk(s.Body.List, held.clone())
			case *ast.RangeStmt:
				if len(held) > 0 {
					flagBlocking(&ast.ExprStmt{X: s.X}, held)
				}
				walk(s.Body.List, held.clone())
			case *ast.SwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walk(cc.Body, held.clone())
					}
				}
			case *ast.TypeSwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walk(cc.Body, held.clone())
					}
				}
			case *ast.SelectStmt:
				if len(held) > 0 {
					flagBlocking(s, held)
				}
			default:
				if len(held) > 0 {
					flagBlocking(stmt, held)
				}
			}
		}
	}
	walk(fd.Body.List, make(heldState))
}
