package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// truncation flags unguarded narrowing conversions of uint64 values —
// bit positions, counts, header words — inside deserializers (the
// Read*/read* entry points and the View*/view* and Decode*/decode*
// functions they end in, which walk one *bits.ByteSource), where the
// uint64 comes from untrusted bytes: a file read whole or a mapping. An
// unchecked uint64→int/uint32 conversion silently wraps, turning a
// corrupt header into out-of-range panics or, worse, structurally valid
// but wrong directories (wrong answers, not crashes).
//
// A conversion counts as guarded when
//
//   - the operand is masked with a constant that fits the target type
//     (e.g. uint(pos & 63)),
//   - the operand, the conversion itself, or the variable/field the
//     result is assigned to appears in a comparison somewhere in the same
//     function (the `if v.n < 0 { return err }` validation idiom), or
//   - the line carries a //ringlint:allow truncation comment.
//
// The analyzer is deliberately scoped to deserializers: inside the query
// hot paths uint64 positions are trusted invariants of construction, and
// flagging every internal narrowing would bury the real findings.
type truncation struct{}

func (truncation) Name() string { return "truncation" }

func (truncation) Run(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !isDeserializerName(fd.Name.Name) {
				continue
			}
			out = append(out, checkTruncation(pkg, fd)...)
		}
	}
	return out
}

func checkTruncation(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	parents := buildParents(fd.Body)
	guards := comparisonExprs(fd.Body)

	var out []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		tv, ok := pkg.Info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return true
		}
		target := tv.Type
		if !isNarrowIntType(target) {
			return true
		}
		arg := call.Args[0]
		argTV := pkg.Info.Types[arg]
		if argTV.Value != nil { // constant-folded: checked at compile time
			return true
		}
		if b, ok := argTV.Type.Underlying().(*types.Basic); !ok || b.Kind() != types.Uint64 {
			return true
		}
		if maskedWithin(pkg, arg, target) {
			return true
		}
		for _, cand := range guardCandidates(pkg, call, arg, parents) {
			if guards[cand] {
				return true
			}
		}
		out = append(out, diag(pkg, "truncation", call,
			"unguarded uint64→%s conversion of %s in deserializer %s (range-check the value or mask it)",
			types.TypeString(target, types.RelativeTo(pkg.Types)), types.ExprString(arg), fd.Name.Name))
		return true
	})
	return out
}

// isNarrowIntType reports whether converting a uint64 to t can lose or
// reinterpret bits: every integer type except uint64/uintptr itself.
func isNarrowIntType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int, types.Int8, types.Int16, types.Int32, types.Int64,
		types.Uint, types.Uint8, types.Uint16, types.Uint32:
		return true
	}
	return false
}

// targetMax returns the largest uint64 that survives conversion to t
// unchanged.
func targetMax(t types.Type) uint64 {
	switch t.Underlying().(*types.Basic).Kind() {
	case types.Int8:
		return 1<<7 - 1
	case types.Uint8:
		return 1<<8 - 1
	case types.Int16:
		return 1<<15 - 1
	case types.Uint16:
		return 1<<16 - 1
	case types.Int32:
		return 1<<31 - 1
	case types.Uint32:
		return 1<<32 - 1
	default: // int, int64, uint (64-bit platforms)
		return 1<<63 - 1
	}
}

// maskedWithin reports whether arg is an AND against a constant that fits
// the target type, e.g. uint(pos & 63).
func maskedWithin(pkg *Package, arg ast.Expr, target types.Type) bool {
	be, ok := arg.(*ast.BinaryExpr)
	if !ok || be.Op != token.AND {
		return false
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		if v := pkg.Info.Types[side].Value; v != nil {
			if mask, ok := constant.Uint64Val(constant.ToInt(v)); ok && mask <= targetMax(target) {
				return true
			}
		}
	}
	return false
}

// guardCandidates returns the rendered expressions whose appearance in a
// comparison validates this conversion: the operand, the conversion
// itself, and the destination the result is assigned to (including
// `v.field` for composite-literal construction).
func guardCandidates(pkg *Package, call *ast.CallExpr, arg ast.Expr, parents map[ast.Node]ast.Node) []string {
	cands := []string{types.ExprString(arg), types.ExprString(call)}
	switch parent := parents[call].(type) {
	case *ast.AssignStmt:
		for i, rhs := range parent.Rhs {
			if rhs == ast.Expr(call) && i < len(parent.Lhs) {
				cands = append(cands, types.ExprString(parent.Lhs[i]))
			}
		}
	case *ast.ValueSpec:
		for i, rhs := range parent.Values {
			if rhs == ast.Expr(call) && i < len(parent.Names) {
				cands = append(cands, parent.Names[i].Name)
			}
		}
	case *ast.KeyValueExpr:
		key, ok := parent.Key.(*ast.Ident)
		if !ok {
			break
		}
		// Walk out of the composite literal (and its enclosing &) to the
		// variable it is assigned to.
		node := parents[parent]
		lit, ok := node.(*ast.CompositeLit)
		if !ok {
			break
		}
		outer := parents[lit]
		if u, ok := outer.(*ast.UnaryExpr); ok && u.Op == token.AND {
			outer = parents[u]
		}
		if assign, ok := outer.(*ast.AssignStmt); ok {
			for _, lhs := range assign.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					cands = append(cands, id.Name+"."+key.Name)
				}
			}
		}
	}
	return cands
}

// comparisonExprs collects the rendered form of every subexpression that
// participates in a comparison (or switch) within body — the evidence
// that a value was validated somewhere in the function.
func comparisonExprs(body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	addSubexprs := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if sub, ok := n.(ast.Expr); ok {
				out[types.ExprString(sub)] = true
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				addSubexprs(n.X)
				addSubexprs(n.Y)
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				addSubexprs(n.Tag)
			}
		}
		return true
	})
	return out
}
