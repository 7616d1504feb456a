package lint

// ctxflow keeps request cancellation flowing: blocking operations
// reachable from an HTTP handler must be guarded by a context, and
// fresh root contexts may not be minted outside reviewed detach points.
// The serving tier's responsiveness contract — a disconnected client
// stops costing capacity — dies quietly when a handler-reachable path
// parks on a bare channel receive or a context.Background() severs the
// cancellation chain.
//
// Two rules:
//
//   - context.Background() and context.TODO() are flagged everywhere
//     unless the line carries //ringlint:detach -- reason. The repo's
//     legitimate detach points are roots with no inbound context to
//     inherit: process shutdown in ringserve, the replication tail loop
//     (Close cancels it) and the parallel-LTJ fallback when the caller
//     provides no context.
//
//   - In packages importing net/http, within functions reachable from a
//     handler (signature contains http.ResponseWriter and
//     *http.Request; reachability via same-package static calls,
//     function literals counted as their enclosing function):
//     a receive outside a select, a select with neither a Done() case
//     nor a default, time.Sleep, WaitGroup.Wait and Cond.Wait are
//     flagged — each parks the request beyond its context's reach.
//
// The call graph is intra-package: a blocking wait behind an interface
// or in another package (e.g. the WAL commit promise, which
// deliberately outlives the request: the batch is already applied, the
// ack merely awaits fsync) is out of scope and documented where it
// lives.

import (
	"go/ast"
	"go/token"
	"go/types"
)

type ctxflow struct{}

func (ctxflow) Name() string { return "ctxflow" }

func (ctxflow) Run(pkg *Package) []Diagnostic {
	detach := directiveLines(pkg, "detach")
	var diags []Diagnostic

	// Rule 1: no fresh root contexts outside annotated detach points.
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Name != "context" {
				return true
			}
			if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); !isPkg {
				return true
			}
			pos := pkg.Fset.Position(call.Pos())
			if _, ok := detach[fileLine{pos.Filename, pos.Line}]; ok {
				return true
			}
			diags = append(diags, diag(pkg, "ctxflow",
				call, "context.%s() severs the cancellation chain: thread the caller's context, or annotate //ringlint:detach -- reason", sel.Sel.Name))
			return true
		})
	}

	if !cfImportsNetHTTP(pkg) {
		return diags
	}

	// Rule 2: blocking operations in handler-reachable functions.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	reachable := map[*types.Func]bool{}
	var queue []*types.Func
	for fn, fd := range decls {
		if cfHandlerSignature(pkg, fd) {
			reachable[fn] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pkg, call)
			if callee == nil || decls[callee] == nil || reachable[callee] {
				return true
			}
			reachable[callee] = true
			queue = append(queue, callee)
			return true
		})
	}
	for fn := range reachable {
		diags = append(diags, cfCheckBlocking(pkg, decls[fn])...)
	}
	return diags
}

func cfImportsNetHTTP(pkg *Package) bool {
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == "net/http" {
			return true
		}
	}
	return false
}

// cfHandlerSignature reports a function taking both an
// http.ResponseWriter and an *http.Request — a handler or a helper on
// the handler path.
func cfHandlerSignature(pkg *Package, fd *ast.FuncDecl) bool {
	var hasW, hasR bool
	for _, field := range fd.Type.Params.List {
		t := pkg.Info.Types[field.Type].Type
		if t == nil {
			continue
		}
		switch t.String() {
		case "net/http.ResponseWriter":
			hasW = true
		case "*net/http.Request":
			hasR = true
		}
	}
	return hasW && hasR
}

// cfCheckBlocking flags context-free blocking operations in one
// handler-reachable function.
func cfCheckBlocking(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	inSelect := map[ast.Node]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			hasDefault, hasDone := false, false
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm == nil {
					hasDefault = true
					continue
				}
				ast.Inspect(cc.Comm, func(m ast.Node) bool {
					if ue, ok := m.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
						inSelect[ue] = true
						if cfIsDoneChannel(pkg, ue.X) {
							hasDone = true
						}
					}
					return true
				})
			}
			if !hasDefault && !hasDone {
				diags = append(diags, diag(pkg, "ctxflow",
					n, "select on a handler-reachable path has no context Done() case and no default: a gone client parks here forever"))
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inSelect[n] {
				diags = append(diags, diag(pkg, "ctxflow",
					n, "blocking receive outside select on a handler-reachable path: guard it with the request context"))
			}
		case *ast.CallExpr:
			if name, blocking := cfBlockingCall(pkg, n); blocking {
				diags = append(diags, diag(pkg, "ctxflow",
					n, "%s blocks a handler-reachable path without a context: a gone client keeps paying for it", name))
			}
		}
		return true
	})
	return diags
}

// cfIsDoneChannel matches <-x.Done() (context cancellation) and
// receives from channels whose name marks them as completion signals
// (done, ready, watchDone...).
func cfIsDoneChannel(pkg *Package, ch ast.Expr) bool {
	if call, ok := ch.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true
		}
	}
	return false
}

// cfBlockingCall matches time.Sleep, (*sync.WaitGroup).Wait and
// (*sync.Cond).Wait.
func cfBlockingCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" && sel.Sel.Name == "Sleep" {
		if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
			return "time.Sleep", true
		}
	}
	if sel.Sel.Name != "Wait" {
		return "", false
	}
	t := pkg.Info.Types[sel.X].Type
	if t == nil {
		return "", false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t.String() {
	case "sync.WaitGroup":
		return "WaitGroup.Wait", true
	case "sync.Cond":
		return "Cond.Wait", true
	}
	return "", false
}
