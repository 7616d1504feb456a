package lint

import (
	"go/ast"
	"go/types"
)

// viewsafe enforces the zero-copy view contract: word slices handed out
// by (*bits.ByteSource).Words may alias a read-only file mapping (every
// index load is DecodePlain and friends over a mapping or a buffer read
// whole), so writing through them is at best a silent corruption of
// shared pages and at worst a SIGSEGV. The analyzer flags, for
//
//	(a) locals assigned from a .Words(...) call, and
//	(b) selector expressions of struct fields annotated //ringlint:viewed
//	    (the fields the View decoders populate with aliased slices),
//
// every write: index assignment (x[i] = v, including op-assign forms),
// append with the slice as the appendee, use as copy's destination, and
// passing the slice to a known in-place mutator (WriteBits). It also
// requires that a struct field directly assigned from a Words(...)
// result carries the //ringlint:viewed annotation, so the aliasing
// contract stays visible at the type definition.
//
// Constructors that write through an annotated field into backing they
// just allocated (fresh heap memory, never viewed) document the reviewed
// exception with //ringlint:allow viewsafe.
type viewsafe struct{}

func (viewsafe) Name() string { return "viewsafe" }

// sliceMutators names functions known to write their slice argument in
// place; passing a view-aliased slice to one is a write.
var sliceMutators = map[string]bool{"WriteBits": true}

func (viewsafe) Run(pkg *Package) []Diagnostic {
	viewed := structFieldsWithDirective(pkg, "viewed")
	viewedVars := make(map[*types.Var]bool)
	for _, vars := range viewed {
		for _, v := range vars {
			viewedVars[v] = true
		}
	}

	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, checkViewsafe(pkg, fd, viewedVars)...)
		}
	}
	return out
}

func checkViewsafe(pkg *Package, fd *ast.FuncDecl, viewedVars map[*types.Var]bool) []Diagnostic {
	var out []Diagnostic

	// Pass 1 (flow-insensitive): locals bound to Words(...) results taint
	// their name for the whole function, and a direct field assignment
	// from Words must target an annotated field.
	taint := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || !isWordsCall(assign.Rhs[0]) || len(assign.Lhs) == 0 {
			return true
		}
		// Words returns (slice, error); in both `w, err := src.Words(n)`
		// and `v.f, err = src.Words(n)` the slice binds to Lhs[0].
		switch lhs := assign.Lhs[0].(type) {
		case *ast.Ident:
			taint[lhs.Name] = true
		case *ast.SelectorExpr:
			if v, ok := pkg.Info.Uses[lhs.Sel].(*types.Var); ok && v.IsField() && !viewedVars[v] {
				out = append(out, diag(pkg, "viewsafe", lhs,
					"field %s is assigned a Source.Words slice but is not annotated //ringlint:viewed",
					types.ExprString(lhs)))
			}
		}
		return true
	})

	tainted := func(e ast.Expr) (string, bool) {
		switch e := e.(type) {
		case *ast.Ident:
			if taint[e.Name] {
				return e.Name, true
			}
		case *ast.SelectorExpr:
			if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok && viewedVars[v] {
				return types.ExprString(e), true
			}
		}
		return "", false
	}

	// Pass 2: writes through tainted slices.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				if name, ok := tainted(ix.X); ok {
					out = append(out, diag(pkg, "viewsafe", lhs,
						"write through view-aliased slice %s (may alias a read-only mapping)", name))
				}
			}
		case *ast.CallExpr:
			if fun, ok := n.Fun.(*ast.Ident); ok {
				if fun.Name == "append" && len(n.Args) > 0 {
					if name, ok := tainted(n.Args[0]); ok {
						out = append(out, diag(pkg, "viewsafe", n,
							"append to view-aliased slice %s (may write into mapped memory)", name))
					}
				}
				if fun.Name == "copy" && len(n.Args) == 2 {
					if name, ok := tainted(n.Args[0]); ok {
						out = append(out, diag(pkg, "viewsafe", n,
							"copy into view-aliased slice %s (may alias a read-only mapping)", name))
					}
				}
			}
			if callee := calleeFunc(pkg, n); callee != nil && sliceMutators[callee.Name()] {
				for _, arg := range n.Args {
					if name, ok := tainted(arg); ok {
						out = append(out, diag(pkg, "viewsafe", n,
							"passing view-aliased slice %s to in-place mutator %s", name, callee.Name()))
					}
				}
			}
		}
		return true
	})
	return out
}

// isWordsCall reports whether e is a method call named Words — the
// (*bits.ByteSource) accessor whose result may alias the input buffer.
func isWordsCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Words"
}
