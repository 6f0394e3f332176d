package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
)

// SnapCodec checks the checkpoint/snapshot codecs for canonical-encoding
// violations. Replicas compare and exchange checkpoints by content (the
// recovery protocol and the checkpoint-tuple alignment both depend on
// byte-identical snapshots), and every decoder runs on bytes that crossed
// the network — so the codec pairs carry three machine-checked contracts:
//
//   - encoders must not let map iteration order reach the output: a
//     map-sourced loop that feeds the encode sink must collect and sort
//     first (the same discipline detmap enforces in deterministic scope,
//     enforced here even if marker drift ever pulls a codec out of it);
//   - a version tag written by the encoder must have a decode arm for
//     every version constant of its group — bumping snapshotV4 to V5
//     without teaching Restore the new arm is a finding, not a crash on
//     the next rolling upgrade;
//   - a length or count read from the wire must be checked against the
//     remaining input (or a constant cap) before it reaches make, a slice
//     bound, or an index — an unguarded u32 count is an allocation bomb
//     (or a make-cap panic) fed by one corrupt checkpoint.
//
// Codec pairs are declared with "//mrp:codec name encode|decode" on the
// function doc. Both sides propagate through static calls into their
// helpers (Restore's checks cover takePartitioner), and every marked
// encoder must have a matching decoder and vice versa.
var SnapCodec = &Analyzer{
	Name: "snapcodec",
	Doc:  "check checkpoint codecs: sorted output, version arms, guarded lengths",
	Run:  runSnapCodec,
}

func runSnapCodec(p *Pass) {
	sc := &snapCodec{pass: p, info: p.Module.Info}
	sc.gather()
	sc.checkPairs()
	for _, side := range sc.sides {
		for _, fn := range side.fnOrder {
			decl := p.Scope.Body(fn)
			if decl == nil {
				continue
			}
			switch side.role {
			case "encode":
				sc.checkEncode(side, fn, decl)
			case "decode":
				sc.checkDecode(side, fn, decl)
			}
		}
	}
	sc.checkVersions()
}

// codecSide is one closure of a codec: the marked roots of one (name,
// role) pair plus every module function statically reachable from them.
type codecSide struct {
	name, role string
	roots      []*types.Func
	fns        map[*types.Func]string // provenance
	fnOrder    []*types.Func
}

type snapCodec struct {
	pass  *Pass
	info  *types.Info
	sides []*codecSide
}

// gather collects the marked codec roots in declaration order and closes
// each side over static calls into module functions.
func (sc *snapCodec) gather() {
	bySide := make(map[string]*codecSide)
	sc.pass.Module.eachFuncDecl(func(pkg *Package, file *ast.File, decl *ast.FuncDecl) {
		fn := sc.pass.Module.funcFor(decl)
		if fn == nil {
			return
		}
		name, role, ok := sc.pass.Markers.Codec(fn)
		if !ok {
			return
		}
		key := name + "\x00" + role
		side := bySide[key]
		if side == nil {
			side = &codecSide{name: name, role: role, fns: make(map[*types.Func]string)}
			bySide[key] = side
			sc.sides = append(sc.sides, side)
		}
		side.roots = append(side.roots, fn)
	})
	for _, side := range sc.sides {
		var worklist []*types.Func
		add := func(fn *types.Func, why string) {
			if _, ok := side.fns[fn]; ok {
				return
			}
			side.fns[fn] = why
			side.fnOrder = append(side.fnOrder, fn)
			worklist = append(worklist, fn)
		}
		for _, root := range side.roots {
			add(root, "marked //mrp:codec "+side.name+" "+side.role)
		}
		for len(worklist) > 0 {
			fn := worklist[len(worklist)-1]
			worklist = worklist[:len(worklist)-1]
			body := sc.pass.Scope.Body(fn)
			if body == nil {
				continue
			}
			via := side.role + "r " + relName(fn)
			ast.Inspect(body.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeOf(sc.info, call)
				if callee == nil || interfaceRecv(callee) != nil {
					return true
				}
				if sc.pass.Scope.Body(callee) != nil {
					add(callee, "reached from "+via)
				}
				return true
			})
		}
	}
}

// checkPairs reports codecs with only one side marked.
func (sc *snapCodec) checkPairs() {
	roles := make(map[string]map[string]*types.Func) // name -> role -> first root
	var names []string
	for _, side := range sc.sides {
		m := roles[side.name]
		if m == nil {
			m = make(map[string]*types.Func)
			roles[side.name] = m
			names = append(names, side.name)
		}
		if _, ok := m[side.role]; !ok && len(side.roots) > 0 {
			m[side.role] = side.roots[0]
		}
	}
	sort.Strings(names)
	for _, name := range names {
		m := roles[name]
		if enc, ok := m["encode"]; ok && m["decode"] == nil {
			sc.pass.Report(enc.Pos(), "codec %s has an encoder but no //mrp:codec %s decode counterpart", name, name)
		}
		if dec, ok := m["decode"]; ok && m["encode"] == nil {
			sc.pass.Report(dec.Pos(), "codec %s has a decoder but no //mrp:codec %s encode counterpart", name, name)
		}
	}
}

// checkEncode flags map iterations whose order can reach the encoder's
// output without a collect-and-sort step.
func (sc *snapCodec) checkEncode(side *codecSide, fn *types.Func, decl *ast.FuncDecl) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := sc.info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		eff := classifyRangeBody(sc.info, rs)
		if eff.orderInsensitive() {
			return true
		}
		if sortedAfter(sc.info, decl, rs, eff.appended) {
			return true
		}
		sc.pass.Report(rs.For,
			"map iteration order reaches the %s encoder (%s): checkpoints are compared by content, so collect the keys and sort before encoding",
			side.name, side.fns[fn])
		return true
	})
}

// wireRead is one variable assigned from a binary length/count read.
type wireRead struct {
	obj types.Object
	pos token.Pos
}

// checkDecode flags wire-length variables that reach make, a slice bound,
// or an index before any bounds check against the remaining input.
func (sc *snapCodec) checkDecode(side *codecSide, fn *types.Func, decl *ast.FuncDecl) {
	reads := sc.wireReads(decl.Body)
	if len(reads) == 0 {
		return
	}
	guards := sc.guardPositions(decl.Body, reads)
	check := func(x ast.Expr, what string, at token.Pos) {
		if x == nil {
			return
		}
		for _, r := range reads {
			if !mentions(sc.info, x, r.obj) {
				continue
			}
			if guarded(guards[r.obj], at) {
				continue
			}
			readAt := sc.pass.Module.Fset.Position(r.pos)
			sc.pass.Report(at,
				"wire-sourced length %s (read at %s:%d) reaches %s before any bounds check in the %s decoder (%s): a corrupt checkpoint drives the allocation",
				r.obj.Name(), readAt.Filename, readAt.Line, what, side.name, side.fns[fn])
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(sc.info, n, "make") {
				for _, arg := range n.Args[1:] {
					check(arg, "make", n.Pos())
				}
			}
		case *ast.SliceExpr:
			check(n.Low, "a slice bound", n.Pos())
			check(n.High, "a slice bound", n.Pos())
			check(n.Max, "a slice bound", n.Pos())
		case *ast.IndexExpr:
			if t := sc.info.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					check(n.Index, "an index", n.Pos())
				}
			}
		}
		return true
	})
}

// wireReads finds locals assigned from binary.*.Uint16/32/64 reads
// (possibly through integer conversions) — the wire-sourced lengths and
// counts a decoder must validate.
func (sc *snapCodec) wireReads(body *ast.BlockStmt) []wireRead {
	var reads []wireRead
	seen := make(map[types.Object]bool)
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
			var obj types.Object
			if as.Tok == token.DEFINE {
				obj = sc.info.Defs[id]
			} else {
				obj = sc.info.Uses[id]
			}
			if obj == nil || seen[obj] || !isBinaryUintRead(sc.info, as.Rhs[i]) {
				continue
			}
			seen[obj] = true
			reads = append(reads, wireRead{obj: obj, pos: as.Pos()})
		}
		return true
	})
	return reads
}

// isBinaryUintRead reports whether x is (a conversion of) a
// binary.ByteOrder Uint16/Uint32/Uint64 call.
func isBinaryUintRead(info *types.Info, x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return isBinaryUintRead(info, call.Args[0])
	}
	callee := calleeOf(info, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "encoding/binary" {
		return false
	}
	switch callee.Name() {
	case "Uint16", "Uint32", "Uint64":
		return true
	}
	return false
}

// guardPositions finds, per wire-read variable, the positions of
// comparisons that validate it: any comparison mentioning the variable
// together with a len(...) call, or comparing it against a constant cap.
func (sc *snapCodec) guardPositions(body *ast.BlockStmt, reads []wireRead) map[types.Object][]token.Pos {
	guards := make(map[types.Object][]token.Pos)
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		default:
			return true
		}
		validating := mentionsLen(sc.info, be) || isConstExpr(sc.info, be.X) || isConstExpr(sc.info, be.Y)
		if !validating {
			return true
		}
		for _, r := range reads {
			if mentions(sc.info, be, r.obj) {
				guards[r.obj] = append(guards[r.obj], be.Pos())
			}
		}
		return true
	})
	return guards
}

func guarded(positions []token.Pos, use token.Pos) bool {
	for _, p := range positions {
		if p < use {
			return true
		}
	}
	return false
}

// mentions reports whether x references obj.
func mentions(info *types.Info, x ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(x, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}

// mentionsLen reports whether x contains a len(...) call.
func mentionsLen(info *types.Info, x ast.Node) bool {
	found := false
	ast.Inspect(x, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(info, call, "len") {
			found = true
		}
		return true
	})
	return found
}

// isConstExpr reports whether x is a compile-time constant (a cap like
// voteTableCap, or a literal).
func isConstExpr(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	return ok && tv.Value != nil
}

// versionConstRE matches version-tag constant names: a group prefix
// followed by V<digits> ("snapshotV4" -> group "snapshotV", version 4).
var versionConstRE = regexp.MustCompile(`^(.*[Vv])(\d+)$`)

// checkVersions verifies that every version constant of a group whose tag
// an encoder writes has a matching arm in the paired decoder closure.
func (sc *snapCodec) checkVersions() {
	decodeRefs := make(map[string]map[types.Object]bool) // codec name -> consts referenced
	for _, side := range sc.sides {
		if side.role != "decode" {
			continue
		}
		refs := decodeRefs[side.name]
		if refs == nil {
			refs = make(map[types.Object]bool)
			decodeRefs[side.name] = refs
		}
		for _, fn := range side.fnOrder {
			if decl := sc.pass.Scope.Body(fn); decl != nil {
				for obj := range constRefs(sc.info, decl.Body) {
					refs[obj] = true
				}
			}
		}
	}
	for _, side := range sc.sides {
		if side.role != "encode" {
			continue
		}
		for _, fn := range side.fnOrder {
			decl := sc.pass.Scope.Body(fn)
			if decl == nil {
				continue
			}
			for obj := range constRefs(sc.info, decl.Body) {
				m := versionConstRE.FindStringSubmatch(obj.Name())
				if m == nil || obj.Pkg() == nil {
					continue
				}
				sc.checkVersionGroup(side, fn, obj, m[1], decodeRefs[side.name])
			}
		}
	}
}

// checkVersionGroup reports group members missing from the decoder's
// referenced constants.
func (sc *snapCodec) checkVersionGroup(side *codecSide, enc *types.Func, ref types.Object, prefix string, decodeRefs map[types.Object]bool) {
	group := versionGroup(ref.Pkg(), prefix)
	if len(group) < 2 {
		return // a lone version constant has no prior arms to cover
	}
	for _, member := range group {
		if !decodeRefs[member] {
			sc.pass.Report(enc.Pos(),
				"encoder %s writes version-tag group %s* but the %s decoder has no arm for %s: every prior version must stay decodable",
				relName(enc), prefix, side.name, member.Name())
		}
	}
}

// versionGroup lists the package's constants sharing a version prefix,
// sorted by version number.
func versionGroup(pkg *types.Package, prefix string) []types.Object {
	type member struct {
		obj types.Object
		n   int
	}
	var members []member
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		m := versionConstRE.FindStringSubmatch(name)
		if m == nil || m[1] != prefix {
			continue
		}
		n, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		members = append(members, member{obj: c, n: n})
	}
	sort.Slice(members, func(i, j int) bool { return members[i].n < members[j].n })
	out := make([]types.Object, len(members))
	for i, m := range members {
		out[i] = m.obj
	}
	return out
}

// constRefs collects the constant objects referenced in a body.
func constRefs(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if c, ok := info.Uses[id].(*types.Const); ok {
				out[c] = true
			}
		}
		return true
	})
	return out
}
