package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetMap flags `range` over a map inside a deterministic function: Go
// randomizes map iteration order per range, so any order-sensitive effect
// — bytes appended to a checkpoint encoding, commands applied to state, a
// hash, a reply payload — diverges between replicas executing the same
// command stream.
//
// A map range is accepted when the analyzer can see it is harmless:
//
//   - every iteration effect is order-insensitive (writes keyed by the
//     iteration key, commutative numeric accumulation, constant flag
//     sets, deletes), or
//   - the loop only collects keys/values into slices that are passed to a
//     sort.* / slices.Sort* call later in the same function before use.
//
// Anything else is reported. Iterations that are order-insensitive for
// reasons the analyzer cannot prove carry a "//mrp:orderinsensitive —
// reason" marker.
var DetMap = &Analyzer{
	Name: "detmap",
	Doc:  "flag nondeterministic map iteration in deterministic functions",
	Run:  runDetMap,
}

func runDetMap(p *Pass) {
	info := p.Module.Info
	p.Module.eachFuncDecl(func(pkg *Package, file *ast.File, decl *ast.FuncDecl) {
		fn := p.Module.funcFor(decl)
		if fn == nil || decl.Body == nil {
			return
		}
		why, ok := p.Scope.Deterministic(fn)
		if !ok {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			insens := classifyRangeBody(info, rs)
			if insens.orderInsensitive() {
				return true
			}
			if sortedAfter(info, decl, rs, insens.appended) {
				return true
			}
			p.Report(rs.For, "map iteration order reaches deterministic state (%s is deterministic: %s); sort the keys first or prove the loop order-insensitive", relName(fn), why)
			return true
		})
	})
}

// rangeEffects summarizes what a map-range body does, conservatively.
type rangeEffects struct {
	// ok is false when the body contains an effect the analyzer cannot
	// classify (general calls, writes through builders, sends, ...).
	ok bool
	// accum is set when the body accumulates non-constant data (numeric
	// sums, map writes) — harmless alone, order-sensitive combined with an
	// early exit.
	accum bool
	// earlyExit is set for break / constant return inside the loop.
	earlyExit bool
	// appended collects slice variables the body appends to; they are
	// order-sensitive unless sorted later (see sortedAfter).
	appended map[types.Object]bool
}

func (e rangeEffects) orderInsensitive() bool {
	return e.ok && len(e.appended) == 0 && !(e.accum && e.earlyExit)
}

// classifyRangeBody classifies every statement of a map-range body.
func classifyRangeBody(info *types.Info, rs *ast.RangeStmt) rangeEffects {
	e := rangeEffects{ok: true, appended: make(map[types.Object]bool)}
	classifyStmts(info, rs.Body.List, &e)
	return e
}

func classifyStmts(info *types.Info, stmts []ast.Stmt, e *rangeEffects) {
	for _, s := range stmts {
		classifyStmt(info, s, e)
	}
}

func classifyStmt(info *types.Info, s ast.Stmt, e *rangeEffects) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		classifyAssign(info, s, e)
	case *ast.IncDecStmt:
		e.accum = true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok || !isBuiltin(info, call, "delete") {
			e.ok = false
			return
		}
		e.accum = true
	case *ast.IfStmt:
		if exprBlocks(s.Cond) {
			e.ok = false
			return
		}
		classifyStmts(info, s.Body.List, e)
		if s.Else != nil {
			classifyStmt(info, s.Else, e)
		}
	case *ast.BlockStmt:
		classifyStmts(info, s.List, e)
	case *ast.BranchStmt:
		switch s.Tok {
		case token.CONTINUE:
		case token.BREAK:
			e.earlyExit = true
		default:
			e.ok = false
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if tv, ok := info.Types[r]; !ok || tv.Value == nil {
				e.ok = false // non-constant result: which element won depends on order
				return
			}
		}
		e.earlyExit = true
	case *ast.RangeStmt, *ast.ForStmt:
		// Nested loops: classify their bodies under the same rules.
		switch s := s.(type) {
		case *ast.RangeStmt:
			classifyStmts(info, s.Body.List, e)
		case *ast.ForStmt:
			classifyStmts(info, s.Body.List, e)
		}
	case *ast.DeclStmt:
	default:
		e.ok = false
	}
}

// classifyAssign accepts map-indexed writes, numeric compound assignment,
// constant flag sets, and slice appends (recorded for sortedAfter).
func classifyAssign(info *types.Info, s *ast.AssignStmt, e *rangeEffects) {
	// s = append(s, x) — record the slice for the sorted-after check.
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok && isBuiltin(info, call, "append") {
			if id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					e.appended[obj] = true
					return
				}
			}
			e.ok = false
			return
		}
	}
	switch s.Tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
		for _, l := range s.Lhs {
			if !isNumeric(info, l) {
				e.ok = false
				return
			}
		}
		e.accum = true
	case token.ASSIGN, token.DEFINE:
		for i, l := range s.Lhs {
			switch l := ast.Unparen(l).(type) {
			case *ast.IndexExpr:
				// A write keyed per iteration (m2[k] = v): insensitive.
				if t := info.TypeOf(l.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						e.accum = true
						continue
					}
				}
				e.ok = false
				return
			case *ast.Ident:
				if l.Name == "_" {
					continue
				}
				// Constant flag set (found = true): idempotent.
				if i < len(s.Rhs) {
					if tv, ok := info.Types[s.Rhs[i]]; ok && tv.Value != nil {
						continue
					}
				}
				e.ok = false
				return
			default:
				e.ok = false
				return
			}
		}
	default:
		e.ok = false
	}
}

// exprBlocks reports whether an expression contains a channel receive
// (which would also make the loop scheduling-dependent).
func exprBlocks(x ast.Expr) bool {
	blocks := false
	ast.Inspect(x, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			blocks = true
		}
		return !blocks
	})
	return blocks
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

func isNumeric(info *types.Info, x ast.Expr) bool {
	t := info.TypeOf(x)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsNumeric) != 0
}

// sortedAfter reports whether every slice the loop appends to is passed to
// a sort call later in the same function (the collect-then-sort idiom).
func sortedAfter(info *types.Info, decl *ast.FuncDecl, rs *ast.RangeStmt, appended map[types.Object]bool) bool {
	if len(appended) == 0 {
		return false
	}
	sorted := make(map[types.Object]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		callee := calleeOf(info, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		if path := callee.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil && appended[obj] {
						sorted[obj] = true
					}
				}
				return true
			})
		}
		return true
	})
	for obj := range appended {
		if !sorted[obj] {
			return false
		}
	}
	return true
}
