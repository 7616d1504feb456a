package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// isDeserializerName reports whether name denotes a deserializer over
// untrusted bytes: the io.Reader-based Read*/read* entry points, the
// View*/view* forms over a byte slice, and the Decode*/decode* forms
// over a *bits.ByteSource that View* and Read* both end in. All three
// families parse attacker- or corruption-controlled input and carry the
// same validation obligations.
func isDeserializerName(name string) bool {
	for _, p := range []string{"Read", "read", "Decode", "decode", "View", "view"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// buildParents maps every node under root to its parent, so analyzers can
// look outward from an expression (e.g. from an append call to the
// assignment that consumes it).
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

func isMapType(pkg *Package, expr ast.Expr) bool {
	t := pkg.Info.Types[expr].Type
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// structFieldsWithDirective returns, per named struct type declared in the
// package, the fields carrying the given ringlint directive.
func structFieldsWithDirective(pkg *Package, verb string) map[*types.Named][]*types.Var {
	out := make(map[*types.Named][]*types.Var)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[ts.Name]
				if !ok {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if !fieldDirective(field, verb) {
						continue
					}
					for _, name := range field.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							out[named] = append(out[named], v)
						}
					}
				}
			}
		}
	}
	return out
}

// recvNamed returns the named struct type of a method receiver,
// dereferencing one pointer level, or nil for non-struct receivers.
func recvNamed(fd *ast.FuncDecl, pkg *Package) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := pkg.Info.Types[fd.Recv.List[0].Type].Type
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// calleeFunc resolves a call expression to the *types.Func it statically
// invokes, or nil for builtins, conversions and dynamic calls.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		} else if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn // package-qualified call
		}
	}
	return nil
}
