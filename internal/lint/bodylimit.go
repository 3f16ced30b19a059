package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// BodyLimit bans unbounded reads of HTTP bodies: an io.ReadAll (or
// ioutil.ReadAll) of a net/http Request or Response Body field, or an
// encoding/* NewDecoder built on one.  Every byte from outside is
// size-bounded at the edge: request bodies are read by
// serve.ReadRequestBody (http.MaxBytesReader at the handler's cap) and
// replies by serve.ReadReply (serve.MaxReplyBytes, failing with
// serve.ErrReplyTooLarge).  A direct io.ReadAll(r.Body) lets a peer make
// the process buffer as much as it sends.
//
// Those two helpers are the exemption, by name in internal/serve.  A
// body wrapped first (json.NewDecoder(io.LimitReader(r.Body, n))) is
// bounded and untouched, and so is draining with io.Copy.  Main packages
// are checked too; test files are not.  perfbench, a separate module
// whose only peers are the router and worker it starts on loopback, is
// exempt: its reply decode in serving.go is part of what the benchmark
// times.
var BodyLimit = &Analyzer{
	Name: "bodylimit",
	Doc:  "HTTP request and response bodies are read only through serve.ReadRequestBody and serve.ReadReply, never by a raw io.ReadAll or decoder",
	Run:  runBodyLimit,
}

// bodyReaders are the sanctioned helpers, in bodyReaderPkg.
var bodyReaders = map[string]bool{"ReadRequestBody": true, "ReadReply": true}

const bodyReaderPkg = "internal/serve"

// bodyLimitExempt are the trees the analyzer skips.
var bodyLimitExempt = []string{"perfbench"}

func runBodyLimit(pass *Pass) {
	if underAny(pass.Pkg.RelDir, bodyLimitExempt) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && bodyReaders[fd.Name.Name] && pass.Pkg.RelDir == bodyReaderPkg {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || !unboundedRead(fn.Pkg().Path(), fn.Name()) {
					return true
				}
				if owner := httpBodyOwner(info, call.Args[0]); owner != "" {
					pass.Reportf(call.Pos(), "%s.%s of an http.%s body in %s reads without a size bound; use serve.ReadRequestBody for requests or serve.ReadReply for replies", fn.Pkg().Name(), fn.Name(), owner, pass.Pkg.Path)
				}
				return true
			})
		}
	}
}

// unboundedRead reports whether pkg.name reads its one io.Reader
// argument to the end: io.ReadAll, ioutil.ReadAll, or a decoder
// constructor from encoding/*.
func unboundedRead(pkg, name string) bool {
	switch {
	case name == "ReadAll":
		return pkg == "io" || pkg == "io/ioutil"
	case name == "NewDecoder":
		return strings.HasPrefix(pkg, "encoding/")
	}
	return false
}

// httpBodyOwner returns "Request" or "Response" when expr is the Body
// field of a net/http Request or Response, and "" otherwise.
func httpBodyOwner(info *types.Info, expr ast.Expr) string {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Body" {
		return ""
	}
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil || v.Pkg().Path() != "net/http" {
		return ""
	}
	t := info.TypeOf(sel.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		if name := named.Obj().Name(); name == "Request" || name == "Response" {
			return name
		}
	}
	return ""
}
