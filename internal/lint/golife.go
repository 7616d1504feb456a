package lint

// golife requires every go statement to have a tracked termination path.
// A goroutine nobody can join is a leak the compiler will never mention:
// the WAL committer, the checkpoint and compaction loops, the
// replication tail and the parallel-LTJ workers all outlive the
// statement that spawns them, and a missing join turns into an
// accumulating goroutine count (or a send on a closed channel) only
// under production load.
//
// A go statement is considered tracked when the spawned function:
//
//   - contains `defer wg.Done()` on a sync.WaitGroup — the spawner (or
//     its owner) joins via wg.Wait();
//   - ends by signalling completion: its last statement is a channel
//     send or close, which the spawner (or a sibling) receives;
//   - is a same-package named function satisfying the WaitGroup rule
//     (`go w.commitLoop()` where commitLoop defers wg.Done()).
//
// Anything else needs //ringlint:goroutine-exception -- reason on or
// above the go statement: fire-and-forget is a reviewed decision, not a
// default.

import (
	"go/ast"
	"go/types"
	"strings"
)

type golife struct{}

func (golife) Name() string { return "golife" }

func (golife) Run(pkg *Package) []Diagnostic {
	exceptions := directiveLines(pkg, "goroutine-exception")
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				pos := pkg.Fset.Position(gs.Pos())
				if _, ok := exceptions[fileLine{pos.Filename, pos.Line}]; ok {
					return true
				}
				if goTracked(pkg, gs) {
					return true
				}
				diags = append(diags, diag(pkg, "golife", gs,
					"goroutine has no tracked termination path (WaitGroup Done or completion send/close); annotate //ringlint:goroutine-exception -- reason if fire-and-forget is intended"))
				return true
			})
		}
	}
	return diags
}

// goTracked classifies one go statement against the tracked-termination
// rules.
func goTracked(pkg *Package, gs *ast.GoStmt) bool {
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		return bodyDefersWaitGroupDone(pkg, lit.Body) || endsWithCompletionSignal(lit.Body)
	}
	// go f() / go x.f(): resolve the callee in this package and apply the
	// WaitGroup rule to its body.
	fn := calleeFunc(pkg, gs.Call)
	if fn == nil {
		return false
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pkg.Info.Defs[fd.Name] == fn {
				return bodyDefersWaitGroupDone(pkg, fd.Body)
			}
		}
	}
	return false
}

// bodyDefersWaitGroupDone reports a `defer wg.Done()` anywhere in the
// body (outside nested function literals).
func bodyDefersWaitGroupDone(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if isWaitGroupDone(pkg, ds.Call) {
			found = true
		}
		return true
	})
	return found
}

// isWaitGroupDone matches wg.Done() where wg is a sync.WaitGroup.
func isWaitGroupDone(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	t := pkg.Info.Types[sel.X].Type
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return strings.HasSuffix(t.String(), "sync.WaitGroup")
}

// endsWithCompletionSignal reports a body whose last statement is a
// channel send or close — the spawner observes the goroutine's end by
// receiving it.
func endsWithCompletionSignal(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.SendStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" {
				return true
			}
		}
	}
	return false
}
