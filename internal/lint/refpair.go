package lint

// refpair pairs resource acquisitions with their releases: file
// mappings (mman.Map → Region.Release) and admission-semaphore weight
// (admission.acquire → admission.release). A mapping never released
// pins its address space forever (leak); a dropped admission token
// shrinks server capacity permanently. Both escape tests because the
// steady state looks fine — the bug is on the error path nobody
// exercises.
//
// Acquire sites are recognized by callee name with a type check — a
// call to Map/acquire only counts when the produced value's type
// (first result, or the receiver) actually has the matching
// Release/release method — so fixture types and future resources keyed
// to the same verbs participate without a hardcoded package list.
//
// Per function, a branch-scoped walk (same discipline as guardedby)
// tracks outstanding acquisitions and accepts these dispositions:
//
//   - an explicit release call on the resource expression;
//   - a deferred release — directly (`defer reg.Release()`) or inside a
//     deferred closure (`defer func() { ... reg.Release() ... }()`),
//     which also covers panic paths;
//   - transfer: returning the resource, storing it into a struct field,
//     map/slice element or package-level variable, sending it on a
//     channel, or an explicit //ringlint:transfer <var> -- reason;
//   - process exit: os.Exit / log.Fatal* / panic end the walk — the
//     kernel releases mappings, and a dying process owes no tokens.
//
// When the acquire returns an error, the resource is considered live
// only after the `if err != nil` guard: inside that branch nothing was
// acquired, so its early return is clean. A return (or falling off the
// end of the function) with an outstanding, untransferred resource is a
// finding.

import (
	"go/ast"
	"go/token"
	"go/types"
)

type refpair struct{}

func (refpair) Name() string { return "refpair" }

// rpPairs maps acquire callee names to the release method the produced
// value must have.
var rpPairs = map[string]string{
	"Map":     "Release",
	"acquire": "release",
}

func (refpair) Run(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The resource types' own methods implement the lifecycle; the
			// pairing obligation is on their callers.
			w := &rpWalker{pkg: pkg, transfers: rpTransferVars(pkg, fd)}
			state := &rpState{live: map[string]*rpResource{}}
			if !w.stmts(fd.Body.List, state) {
				w.checkLeaks(state, fd.Body.End(), "the implicit return at end of function", &w.diags)
			}
			diags = append(diags, w.diags...)
		}
	}
	return diags
}

// rpResource is one outstanding acquisition.
type rpResource struct {
	key     string // expression the release must target: "reg", "s.adm"
	relName string // "Release" or "release"
	errVar  types.Object
	node    ast.Node
}

type rpState struct {
	live map[string]*rpResource
}

func (s *rpState) clone() *rpState {
	out := &rpState{live: make(map[string]*rpResource, len(s.live))}
	for k, v := range s.live {
		out.live[k] = v
	}
	return out
}

type rpWalker struct {
	pkg       *Package
	transfers map[string]bool // vars handed off via //ringlint:transfer
	deferred  []string        // resource keys released by a defer seen so far
	diags     []Diagnostic
}

// rpTransferVars collects //ringlint:transfer <var> directives anywhere
// in the function.
func rpTransferVars(pkg *Package, fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	lines := directiveLines(pkg, "transfer")
	start := pkg.Fset.Position(fd.Pos()).Line
	end := pkg.Fset.Position(fd.End()).Line
	file := pkg.Fset.Position(fd.Pos()).Filename
	for fl, arg := range lines {
		if fl.file == file && fl.line >= start && fl.line <= end+1 && arg != "" {
			out[arg] = true
		}
	}
	return out
}

// stmts processes a block; the bool result reports that the block
// definitely terminated (return, exit, panic), so nothing after it runs.
func (w *rpWalker) stmts(list []ast.Stmt, st *rpState) bool {
	for _, s := range list {
		if w.stmt(s, st) {
			return true
		}
	}
	return false
}

// stmt processes one statement; the bool result reports a terminator
// (return, exit, panic) after which the enclosing block stops.
// Acquisitions made inside a fall-through branch propagate out (union):
// a resource live at the end of any non-terminating path stays live
// after the statement.
func (w *rpWalker) stmt(s ast.Stmt, st *rpState) bool {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.AssignStmt:
		w.assign(s, st)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if rpTerminates(w.pkg, call) {
				return true
			}
			if key, ok := w.releaseTarget(call, st); ok {
				delete(st.live, key)
				return false
			}
			// Receiver-keyed acquire as a bare statement: s.acquire(w).
			if res := w.acquire(call, nil); res != nil {
				w.track(res, st)
			}
		}
	case *ast.DeferStmt:
		w.deferRelease(s.Call, st)
	case *ast.ReturnStmt:
		w.checkLeaks(w.afterTransfers(s, st), s.Pos(), "this return path", &w.diags)
		return true
	case *ast.SendStmt:
		if id, ok := s.Value.(*ast.Ident); ok {
			delete(st.live, id.Name) // handed to another goroutine
		}
	case *ast.IfStmt:
		w.stmt(s.Init, st)
		body := st.clone()
		w.refineErrBranch(s.Cond, body)
		if !w.stmt(s.Body, body) {
			w.merge(st, body)
		}
		if s.Else != nil {
			els := st.clone()
			if !w.stmt(s.Else, els) {
				w.merge(st, els)
			}
		}
	case *ast.ForStmt:
		w.stmt(s.Init, st)
		body := st.clone()
		if !w.stmt(s.Body, body) {
			w.merge(st, body)
		}
	case *ast.RangeStmt:
		body := st.clone()
		if !w.stmt(s.Body, body) {
			w.merge(st, body)
		}
	case *ast.SwitchStmt:
		w.stmt(s.Init, st)
		for _, c := range s.Body.List {
			branch := st.clone()
			if !w.stmts(c.(*ast.CaseClause).Body, branch) {
				w.merge(st, branch)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			branch := st.clone()
			if !w.stmts(c.(*ast.CaseClause).Body, branch) {
				w.merge(st, branch)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			branch := st.clone()
			w.stmt(cc.Comm, branch)
			if !w.stmts(cc.Body, branch) {
				w.merge(st, branch)
			}
		}
	}
	return false
}

// merge unions a fall-through branch's live set into the enclosing
// state (an acquisition inside an if body or a switch case, as
// ringstats and ringserve map their index inside an if body).
func (w *rpWalker) merge(st, branch *rpState) {
	for k, v := range branch.live {
		st.live[k] = v
	}
}

// assign handles acquire sites and transfer-by-store.
func (w *rpWalker) assign(s *ast.AssignStmt, st *rpState) {
	// Reassigning an error variable severs its link to earlier acquires.
	for _, lhs := range s.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := w.lhsObj(id); obj != nil {
				for _, r := range st.live {
					if r.errVar == obj {
						r.errVar = nil
					}
				}
			}
		}
	}
	// Transfer: resource stored into a field, element, or package var.
	for i, rhs := range s.Rhs {
		id, ok := rhs.(*ast.Ident)
		if !ok || st.live[id.Name] == nil || i >= len(s.Lhs) {
			continue
		}
		switch lhs := s.Lhs[i].(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
			_ = lhs
			delete(st.live, id.Name)
		case *ast.Ident:
			if obj := w.pkg.Info.Uses[lhs]; obj != nil && obj.Parent() == w.pkg.Types.Scope() {
				delete(st.live, id.Name) // package-level owner takes over
			}
		}
	}
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	var key *ast.Ident
	if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
		key = id
	}
	res := w.acquire(call, key)
	if res == nil {
		return
	}
	// The error result, if captured, refines `if err != nil` branches:
	// inside them the acquire failed.
	for _, lhs := range s.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
			if obj := w.lhsObj(id); obj != nil && obj.Type() != nil && obj.Type().String() == "error" {
				res.errVar = obj
			}
		}
	}
	w.track(res, st)
}

func (w *rpWalker) track(res *rpResource, st *rpState) {
	if w.transfers[res.key] {
		return // annotated handoff
	}
	for _, k := range w.deferred {
		if k == res.key {
			return // a defer registered earlier releases it at exit
		}
	}
	st.live[res.key] = res
}

func (w *rpWalker) lhsObj(id *ast.Ident) types.Object {
	if obj := w.pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return w.pkg.Info.Uses[id]
}

// acquire matches a call against rpPairs, verifying the produced value
// has the paired release method. key overrides the resource expression
// (the assignment lhs); nil means the call receiver (acquire).
func (w *rpWalker) acquire(call *ast.CallExpr, key *ast.Ident) *rpResource {
	var name string
	var sel *ast.SelectorExpr
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		sel = fun
		name = fun.Sel.Name
	case *ast.Ident:
		name = fun.Name // same-package call, e.g. Map(path)
	default:
		return nil
	}
	relName, ok := rpPairs[name]
	if !ok {
		return nil
	}
	switch name {
	case "Map":
		// Function returning the resource (mman.Map or a same-package
		// Map): the assignment lhs is the handle.
		if key == nil {
			return nil
		}
		t := w.pkg.Info.Types[call].Type
		if tuple, ok := t.(*types.Tuple); ok && tuple.Len() > 0 {
			t = tuple.At(0).Type()
		}
		if !rpHasMethod(t, relName) {
			return nil
		}
		return &rpResource{key: key.Name, relName: relName, node: call}
	default:
		// Method acquire: the receiver is the resource.
		if sel == nil {
			return nil
		}
		recv := w.pkg.Info.Types[sel.X].Type
		if !rpHasMethod(recv, relName) {
			return nil
		}
		return &rpResource{key: types.ExprString(sel.X), relName: relName, node: call}
	}
}

// releaseTarget matches `<key>.Release()` / `<key>.release(...)` for a
// live resource.
func (w *rpWalker) releaseTarget(call *ast.CallExpr, st *rpState) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	key := types.ExprString(sel.X)
	res := st.live[key]
	if res != nil && sel.Sel.Name == res.relName {
		return key, true
	}
	return "", false
}

// deferRelease handles `defer x.Release()` and deferred closures that
// release: both run on every exit, including panics.
func (w *rpWalker) deferRelease(call *ast.CallExpr, st *rpState) {
	record := func(key string) {
		delete(st.live, key)
		w.deferred = append(w.deferred, key)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Release" || sel.Sel.Name == "release" {
			record(types.ExprString(sel.X))
			return
		}
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := inner.Fun.(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Release" || sel.Sel.Name == "release" {
					record(types.ExprString(sel.X))
				}
			}
			return true
		})
	}
}

// refineErrBranch drops resources whose acquire failed from an
// `if err != nil` branch: nothing was acquired on that path.
func (w *rpWalker) refineErrBranch(cond ast.Expr, st *rpState) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return
	}
	id, ok := be.X.(*ast.Ident)
	if !ok {
		return
	}
	if nilID, ok := be.Y.(*ast.Ident); !ok || nilID.Name != "nil" {
		return
	}
	obj := w.pkg.Info.Uses[id]
	if obj == nil {
		return
	}
	for k, r := range st.live {
		if r.errVar == obj {
			delete(st.live, k)
		}
	}
}

// afterTransfers clones the state minus resources the return statement
// itself hands to the caller.
func (w *rpWalker) afterTransfers(ret *ast.ReturnStmt, st *rpState) *rpState {
	out := st.clone()
	for _, res := range ret.Results {
		if id, ok := res.(*ast.Ident); ok {
			delete(out.live, id.Name)
		}
	}
	return out
}

func (w *rpWalker) checkLeaks(st *rpState, pos token.Pos, where string, diags *[]Diagnostic) {
	for _, r := range st.live {
		*diags = append(*diags, Diagnostic{
			Pos:      w.pkg.Fset.Position(pos),
			Analyzer: "refpair",
			Message: "acquired " + r.key + " is not released or transferred on " + where +
				" (pair with " + r.relName + ", defer it, or annotate //ringlint:transfer " + r.key + " -- reason)",
		})
	}
}

// rpHasMethod reports whether t (or *t) has a method with the given
// name — the gate that keeps unrelated Map/acquire callees out
// of the pair table.
func rpHasMethod(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	for _, tt := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(tt)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				return true
			}
		}
	}
	return false
}

// rpTerminates matches calls after which the function never returns:
// os.Exit, log.Fatal*, panic.
func rpTerminates(pkg *Package, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkgID, ok := fun.X.(*ast.Ident); ok {
			if pkgID.Name == "os" && fun.Sel.Name == "Exit" {
				return true
			}
			if pkgID.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln") {
				return true
			}
		}
	}
	return false
}
