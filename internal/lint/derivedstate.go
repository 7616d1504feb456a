package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// derivedstate enforces the contract of //ringlint:derived struct fields
// (the select samples, rank caches and devirtualized views of the
// succinct substrate): they are pure acceleration state, derived from the
// serialized fields. Therefore
//
//  1. no Write*/write* serialization function may reference them (a
//     reference in a serializer means the derived state is being written
//     to the stream, bloating the |G| + o(|G|) space claim and going
//     stale on rebuild), and
//  2. every deserializer returning the struct (the Read*/read* entry
//     points and the View*/view* and Decode*/decode* functions over a
//     *bits.ByteSource they end in) must rebuild them — directly or
//     through functions it calls or hands to a helper as a value —
//     before handing the value out, or queries on a loaded index return
//     wrong answers.
type derivedstate struct{}

func (derivedstate) Name() string { return "derivedstate" }

// funcFacts are the per-function observations derivedstate gathers in one
// pass: derived fields assigned, derived fields referenced, and static
// intra-package callees (for the transitive rebuild check).
type funcFacts struct {
	decl    *ast.FuncDecl
	assigns map[*types.Var]bool
	refs    []*ast.SelectorExpr
	refVars []*types.Var
	callees []*types.Func
}

func (derivedstate) Run(pkg *Package) []Diagnostic {
	derived := structFieldsWithDirective(pkg, "derived")
	if len(derived) == 0 {
		return nil
	}
	derivedVars := make(map[*types.Var]*types.Named)
	for named, vars := range derived {
		for _, v := range vars {
			derivedVars[v] = named
		}
	}

	facts := make(map[*types.Func]*funcFacts)
	var order []*types.Func
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ff := &funcFacts{decl: fd, assigns: make(map[*types.Var]bool)}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok && derivedVars[v] != nil {
								ff.assigns[v] = true
							}
						}
					}
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						if v, ok := pkg.Info.Uses[key].(*types.Var); ok && derivedVars[v] != nil {
							ff.assigns[v] = true
						}
					}
				case *ast.SelectorExpr:
					if v, ok := pkg.Info.Uses[n.Sel].(*types.Var); ok && derivedVars[v] != nil {
						ff.refs = append(ff.refs, n)
						ff.refVars = append(ff.refVars, v)
					}
				case *ast.CallExpr:
					if callee := calleeFunc(pkg, n); callee != nil && callee.Pkg() == pkg.Types {
						ff.callees = append(ff.callees, callee)
					}
					// A same-package function passed as a value is called by
					// the helper it is passed to (bits.View(b, "p", DecodePlain)).
					for _, arg := range n.Args {
						if id, ok := arg.(*ast.Ident); ok {
							if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Pkg() == pkg.Types {
								ff.callees = append(ff.callees, fn)
							}
						}
					}
				}
				return true
			})
			facts[fn] = ff
			order = append(order, fn)
		}
	}

	var out []Diagnostic
	for _, fn := range order {
		ff := facts[fn]
		name := fn.Name()
		switch {
		case strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "write"):
			for i, sel := range ff.refs {
				v := ff.refVars[i]
				out = append(out, diag(pkg, "derivedstate", sel,
					"serialization function %s references derived field %s.%s (derived directories must never be serialized)",
					name, derivedVars[v].Obj().Name(), v.Name()))
			}
		case isDeserializerName(name):
			sig := fn.Type().(*types.Signature)
			results := sig.Results()
			for i := 0; i < results.Len(); i++ {
				t := results.At(i).Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				named, ok := t.(*types.Named)
				if !ok || len(derived[named]) == 0 {
					continue
				}
				rebuilt := transitiveAssigns(fn, facts)
				for _, v := range derived[named] {
					if !rebuilt[v] {
						out = append(out, diag(pkg, "derivedstate", ff.decl.Name,
							"deserializer %s returns %s without rebuilding derived field %s",
							name, named.Obj().Name(), v.Name()))
					}
				}
			}
		}
	}
	return out
}

// transitiveAssigns returns the derived fields assigned by fn or by any
// function reachable from it through static intra-package calls.
func transitiveAssigns(fn *types.Func, facts map[*types.Func]*funcFacts) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	seen := make(map[*types.Func]bool)
	var visit func(*types.Func)
	visit = func(f *types.Func) {
		if seen[f] {
			return
		}
		seen[f] = true
		ff := facts[f]
		if ff == nil {
			return
		}
		for v := range ff.assigns {
			out[v] = true
		}
		for _, callee := range ff.callees {
			visit(callee)
		}
	}
	visit(fn)
	return out
}
