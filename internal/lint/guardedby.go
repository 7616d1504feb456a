package lint

// guardedby enforces the lock discipline declared with
// //ringlint:guarded-by <mu> on struct fields: every read or write of an
// annotated field must happen in a function that holds the named mutex
// on the path to the access. The serving tier (admission semaphore,
// result cache, WAL, dynamic store, mmap region refcounts) keeps its
// invariants behind plain sync.Mutex fields; a single missed lock
// surfaces as a rare torn read under load, not as a test failure —
// exactly the bug class a compiler-shaped check should own.
//
// The analysis is a per-function, branch-scoped walk, not a fixpoint
// over a CFG:
//
//   - mu.Lock()/RLock() adds the mutex (with its receiver expression) to
//     the held set; Unlock()/RUnlock() removes it; a deferred unlock
//     keeps it held until exit.
//   - The bodies of if/else, for, switch cases and select cases are
//     walked with a copy of the held set, so an early-return unlock path
//     does not bleed into the fall-through path.
//   - Function literals are walked with an empty held set: a closure
//     runs when it runs, not where it is written.
//   - Methods whose name ends in "Locked", or functions annotated
//     //ringlint:locked [<mu>], start with the caller's locks held — the
//     repo-wide caller-holds-the-lock convention.
//   - Accesses through a struct the function itself constructs (a
//     composite literal assigned to a local) are exempt: the object is
//     not shared yet.
//
// The guard argument is either a sibling field name ("mu": a.mu guards
// a.used, matched by receiver expression) or Type.field naming another
// struct's mutex in the same package (any holder qualifies — a
// registry lock guarding the records it owns).
// The walk does not distinguish read from write locks: an RLock holder
// may read and — per this analyzer — write; write-under-RLock is left to
// the race detector lane. Reviewed lock-free fast paths carry
// //ringlint:allow guardedby -- reason.

import (
	"go/ast"
	"go/types"
	"strings"
)

type guardedby struct{}

func (guardedby) Name() string { return "guardedby" }

// gbGuard is the mutex protecting one annotated field.
type gbGuard struct {
	mu      *types.Var
	muName  string // rendered for diagnostics, e.g. "mu" or "registry.mu"
	sibling bool   // sibling field: lock receiver must match access base
}

// gbHeld is one held mutex: the mutex field plus the expression it was
// locked through ("" for entries seeded by the Locked convention on
// cross-struct guards).
type gbHeld struct {
	mu   *types.Var
	base string
}

func (guardedby) Run(pkg *Package) []Diagnostic {
	g := &gbAnalysis{pkg: pkg, guards: map[*types.Var]gbGuard{}, structGuards: map[*types.Named][]gbGuard{}, mus: map[*types.Var]bool{}}
	g.collect()
	if len(g.guards) == 0 {
		return nil
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				g.checkFunc(fd)
			}
		}
	}
	return g.diags
}

type gbAnalysis struct {
	pkg          *Package
	guards       map[*types.Var]gbGuard     // annotated field -> its guard
	structGuards map[*types.Named][]gbGuard // owner struct -> guards of its annotated fields
	mus          map[*types.Var]bool        // every mutex acting as a guard
	diags        []Diagnostic
}

// collect resolves every //ringlint:guarded-by annotation to (field,
// mutex) variable pairs.
func (g *gbAnalysis) collect() {
	for _, f := range g.pkg.Files {
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
				obj, ok := g.pkg.Info.Defs[ts.Name]
				if !ok {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					arg, ok := fieldDirectiveArgs(field, "guarded-by")
					if !ok {
						continue
					}
					guard, ok := g.resolveGuard(arg, st)
					if !ok {
						g.diags = append(g.diags, diag(g.pkg, "guardedby", field,
							"cannot resolve guard %q: want a sibling mutex field or Type.field in this package", arg))
						continue
					}
					for _, name := range field.Names {
						if v, ok := g.pkg.Info.Defs[name].(*types.Var); ok {
							g.guards[v] = guard
							g.structGuards[named] = append(g.structGuards[named], guard)
							g.mus[guard.mu] = true
						}
					}
				}
			}
		}
	}
}

// resolveGuard maps a guarded-by argument to the mutex field it names:
// a sibling field of owner, or Type.field elsewhere in the package.
func (g *gbAnalysis) resolveGuard(arg string, owner *ast.StructType) (gbGuard, bool) {
	if typeName, fieldName, qualified := strings.Cut(arg, "."); qualified {
		obj := g.pkg.Types.Scope().Lookup(typeName)
		if obj == nil {
			return gbGuard{}, false
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			return gbGuard{}, false
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == fieldName {
				return gbGuard{mu: st.Field(i), muName: arg, sibling: false}, true
			}
		}
		return gbGuard{}, false
	}
	for _, field := range owner.Fields.List {
		for _, name := range field.Names {
			if name.Name == arg {
				if v, ok := g.pkg.Info.Defs[name].(*types.Var); ok {
					return gbGuard{mu: v, muName: arg, sibling: true}, true
				}
			}
		}
	}
	return gbGuard{}, false
}

// fieldDirectiveArgs is fieldDirective with the directive's arguments.
func fieldDirectiveArgs(field *ast.Field, verb string) (string, bool) {
	if args, ok := groupDirective(field.Doc, verb); ok {
		return args, true
	}
	return groupDirective(field.Comment, verb)
}

// checkFunc walks one function with the entry-held set implied by its
// name and directives.
func (g *gbAnalysis) checkFunc(fd *ast.FuncDecl) {
	held := map[gbHeld]bool{}
	if locked, arg := g.callerHoldsLock(fd); locked {
		g.seedHeld(fd, arg, held)
	}
	w := &gbWalker{a: g, fresh: g.freshObjects(fd.Body)}
	w.stmts(fd.Body.List, held)
}

// callerHoldsLock reports the caller-holds-the-lock convention: an
// explicit //ringlint:locked directive, or a method name ending in
// "Locked".
func (g *gbAnalysis) callerHoldsLock(fd *ast.FuncDecl) (bool, string) {
	if arg, ok := groupDirective(fd.Doc, "locked"); ok {
		return true, arg
	}
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return true, ""
	}
	return false, ""
}

// seedHeld installs the locks a caller-holds-lock function starts with:
// the named mutex, or every guard of the receiver's annotated fields.
func (g *gbAnalysis) seedHeld(fd *ast.FuncDecl, arg string, held map[gbHeld]bool) {
	recvName := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		recvName = fd.Recv.List[0].Names[0].Name
	}
	if arg != "" {
		if named := recvNamed(fd, g.pkg); named != nil {
			if st, ok := named.Underlying().(*types.Struct); ok {
				if guard, ok := g.resolveGuardForSeed(arg, st); ok {
					base := ""
					if guard.sibling {
						base = recvName
					}
					held[gbHeld{guard.mu, base}] = true
					return
				}
			}
		}
		// Type.field form works without a receiver.
		if guard, ok := g.resolveGuard(arg, &ast.StructType{Fields: &ast.FieldList{}}); ok {
			held[gbHeld{guard.mu, ""}] = true
		}
		return
	}
	named := recvNamed(fd, g.pkg)
	if named == nil {
		return
	}
	for _, guard := range g.structGuards[named] {
		base := ""
		if guard.sibling {
			base = recvName
		}
		held[gbHeld{guard.mu, base}] = true
	}
}

// resolveGuardForSeed resolves a locked-directive argument against a
// receiver struct's type (no AST available, so sibling lookup goes
// through go/types).
func (g *gbAnalysis) resolveGuardForSeed(arg string, st *types.Struct) (gbGuard, bool) {
	if strings.Contains(arg, ".") {
		return g.resolveGuard(arg, &ast.StructType{Fields: &ast.FieldList{}})
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == arg {
			return gbGuard{mu: st.Field(i), muName: arg, sibling: true}, true
		}
	}
	return gbGuard{}, false
}

// freshObjects collects locals the function itself constructs from a
// composite literal: accesses through them are pre-publication and need
// no lock.
func (g *gbAnalysis) freshObjects(body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			rhs := as.Rhs[i]
			if ue, ok := rhs.(*ast.UnaryExpr); ok {
				rhs = ue.X
			}
			if _, ok := rhs.(*ast.CompositeLit); !ok {
				continue
			}
			if obj := g.pkg.Info.Defs[id]; obj != nil {
				fresh[obj] = true
			} else if obj := g.pkg.Info.Uses[id]; obj != nil {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

type gbWalker struct {
	a     *gbAnalysis
	fresh map[types.Object]bool
}

func copyHeld(held map[gbHeld]bool) map[gbHeld]bool {
	out := make(map[gbHeld]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (w *gbWalker) stmts(list []ast.Stmt, held map[gbHeld]bool) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

// stmt threads the held set through one statement: lock transitions
// mutate it in place, branch bodies get copies.
func (w *gbWalker) stmt(s ast.Stmt, held map[gbHeld]bool) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if mu, base, locks, isOp := w.lockOp(call); isOp {
				w.exprs(call.Args, held)
				if locks {
					held[gbHeld{mu, base}] = true
				} else {
					delete(held, gbHeld{mu, base})
				}
				return
			}
		}
		w.expr(s.X, held)
	case *ast.DeferStmt:
		if _, _, locks, isOp := w.lockOp(s.Call); isOp && !locks {
			return // deferred unlock: held until exit
		}
		w.expr(s.Call, held)
	case *ast.GoStmt:
		w.expr(s.Call, held)
	case *ast.IfStmt:
		w.stmt(s.Init, held)
		w.expr(s.Cond, held)
		w.stmt(s.Body, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		w.stmt(s.Init, held)
		w.expr(s.Cond, held)
		body := copyHeld(held)
		w.stmt(s.Body, body)
		w.stmt(s.Post, body)
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.stmt(s.Body, copyHeld(held))
	case *ast.SwitchStmt:
		w.stmt(s.Init, held)
		w.expr(s.Tag, held)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			branch := copyHeld(held)
			w.exprs(cc.List, branch)
			w.stmts(cc.Body, branch)
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, held)
		w.stmt(s.Assign, held)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			w.stmts(cc.Body, copyHeld(held))
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			branch := copyHeld(held)
			w.stmt(cc.Comm, branch)
			w.stmts(cc.Body, branch)
		}
	default:
		// Leaf statements (assign, incdec, return, send, decl, branch):
		// scan every contained expression under the current held set.
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				w.stmts(n.Body.List, map[gbHeld]bool{})
				return false
			case *ast.SelectorExpr:
				w.checkAccess(n, held)
			}
			return true
		})
	}
}

func (w *gbWalker) exprs(list []ast.Expr, held map[gbHeld]bool) {
	for _, e := range list {
		w.expr(e, held)
	}
}

// expr scans one expression tree for guarded accesses, descending into
// function literals with an empty held set.
func (w *gbWalker) expr(e ast.Expr, held map[gbHeld]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.stmts(n.Body.List, map[gbHeld]bool{})
			return false
		case *ast.SelectorExpr:
			w.checkAccess(n, held)
		}
		return true
	})
}

// lockOp matches base.mu.Lock/RLock/Unlock/RUnlock() where mu is one of
// the package's guard mutexes.
func (w *gbWalker) lockOp(call *ast.CallExpr) (mu *types.Var, base string, locks, isOp bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		locks = true
	case "Unlock", "RUnlock":
	default:
		return nil, "", false, false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false, false
	}
	muVar := w.fieldVar(inner)
	if muVar == nil || !w.a.mus[muVar] {
		return nil, "", false, false
	}
	return muVar, types.ExprString(inner.X), locks, true
}

// checkAccess flags a guarded-field access made without its mutex.
func (w *gbWalker) checkAccess(sel *ast.SelectorExpr, held map[gbHeld]bool) {
	fv := w.fieldVar(sel)
	if fv == nil {
		return
	}
	guard, guarded := w.a.guards[fv]
	if !guarded {
		return
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if obj := w.a.pkg.Info.Uses[id]; obj != nil && w.fresh[obj] {
			return // constructed here, not yet shared
		}
	}
	if guard.sibling {
		if held[gbHeld{guard.mu, types.ExprString(sel.X)}] {
			return
		}
	} else {
		for h := range held {
			if h.mu == guard.mu {
				return
			}
		}
	}
	w.a.diags = append(w.a.diags, diag(w.a.pkg, "guardedby", sel,
		"access to %s.%s without holding %s (//ringlint:guarded-by)", types.ExprString(sel.X), sel.Sel.Name, guard.muName))
}

// fieldVar resolves a selector to the struct field it reads, or nil.
func (w *gbWalker) fieldVar(sel *ast.SelectorExpr) *types.Var {
	if s, ok := w.a.pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}
