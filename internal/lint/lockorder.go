package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder walks every function body of the module once, threading the
// set of held sync.Mutex/RWMutex locks through statement order, and
// reports two deadlock shapes.
//
// Blocking under a lock: a channel send or receive, a range over a
// channel, a select without a default case, time.Sleep, or
// sync.WaitGroup.Wait while a lock is held. A goroutine parked on a
// channel while holding a lock is the classic SMR-executor deadlock: the
// goroutine that would drain the channel needs the same lock.
//
// Lock-order cycles: locks are identified by class, not instance: a named
// type's mutex field ("smr.Replica.mu"), a package-level mutex var, or a
// named type that embeds a mutex. Acquiring lock B while holding lock A
// adds the edge A→B; edges also follow the cross-package call graph
// (including interface dispatch via class-hierarchy analysis over every
// module type), so a function that calls into another package while
// holding its own lock inherits that package's acquisitions as nested.
// Any cycle in the graph is an ordering that can deadlock under the right
// interleaving. Same-class nesting (A→A) is reported too: locking a second
// instance of the same class while one is held deadlocks unless every path
// orders the instances identically, which the analyzer cannot verify.
//
// Held regions are flow-aware: an Unlock on the same lock closes the
// region, a deferred Unlock holds to function exit, branch bodies are
// walked with a copy of the held set, and `go` statements and function
// literals run without the caller's locks. A lock whose class cannot be
// identified (a function-local mutex) still counts as held for the
// blocking check but adds no edge to the graph.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "report lock-order cycles and blocking operations under a held mutex",
	Run:  runLockOrder,
}

// lockCall is one resolvable call site with the lock classes held around
// it (sorted).
type lockCall struct {
	callee *types.Func
	held   []string
	pos    token.Pos
}

// lockSummary is the per-function result of the held-region walk.
type lockSummary struct {
	fn *types.Func
	// acquires maps lock class -> first acquisition site in the function.
	acquires map[string]token.Pos
	calls    []lockCall
}

// lockEdge is one lock-order edge A→B with its provenance.
type lockEdge struct {
	from, to string
	pos      token.Pos
	via      string // callee carrying the nested acquisition ("" if direct)
}

func runLockOrder(p *Pass) {
	lo := &lockOrder{
		pass:  p,
		info:  p.Module.Info,
		edges: make(map[string]map[string]lockEdge),
	}
	// Interface calls resolve over every package: the lock graph does not
	// stop at marker boundaries; deadlocks don't either.
	lo.concrete = namedTypes(p.Module, func(*Package) bool { return true })
	p.Module.eachFuncDecl(func(pkg *Package, file *ast.File, decl *ast.FuncDecl) {
		fn := p.Module.funcFor(decl)
		if fn == nil || decl.Body == nil {
			return
		}
		s := &lockSummary{fn: fn, acquires: make(map[string]token.Pos)}
		lo.order = append(lo.order, s)
		w := &lockWalker{lo: lo, sum: s}
		w.stmts(decl.Body.List, make(heldSet))
	})
	lo.callEdges(lo.closeAcquires())
	lo.reportCycles()
}

type lockOrder struct {
	pass     *Pass
	info     *types.Info
	concrete []types.Type
	order    []*lockSummary
	edges    map[string]map[string]lockEdge
}

// addEdge records A→B once (first site wins; the walk order is
// deterministic, so so is the kept site).
func (lo *lockOrder) addEdge(e lockEdge) {
	m := lo.edges[e.from]
	if m == nil {
		m = make(map[string]lockEdge)
		lo.edges[e.from] = m
	}
	if _, ok := m[e.to]; !ok {
		m[e.to] = e
	}
}

// closeAcquires computes the transitive lock acquisitions of every
// function: its own plus those of everything it can call.
func (lo *lockOrder) closeAcquires() map[*types.Func]map[string]token.Pos {
	trans := make(map[*types.Func]map[string]token.Pos, len(lo.order))
	for _, s := range lo.order {
		t := make(map[string]token.Pos, len(s.acquires))
		for id, pos := range s.acquires {
			t[id] = pos
		}
		trans[s.fn] = t
	}
	for changed := true; changed; {
		changed = false
		for _, s := range lo.order {
			t := trans[s.fn]
			for _, c := range s.calls {
				for id, pos := range trans[c.callee] {
					if _, ok := t[id]; !ok {
						t[id] = pos
						changed = true
					}
				}
			}
		}
	}
	return trans
}

// callEdges turns lock-held call sites into graph edges: held lock →
// every lock the callee transitively acquires.
func (lo *lockOrder) callEdges(trans map[*types.Func]map[string]token.Pos) {
	for _, s := range lo.order {
		for _, c := range s.calls {
			acquired := trans[c.callee]
			if len(c.held) == 0 || len(acquired) == 0 {
				continue
			}
			for _, to := range sortedKeys(acquired) {
				for _, from := range c.held {
					lo.addEdge(lockEdge{from: from, to: to, pos: c.pos, via: relName(c.callee)})
				}
			}
		}
	}
}

// reportCycles finds strongly connected components of the lock graph and
// reports one representative cycle per component, plus same-class
// self-edges.
func (lo *lockOrder) reportCycles() {
	nodes := sortedKeys(lo.edges)

	for _, from := range nodes {
		if e, ok := lo.edges[from][from]; ok {
			via := ""
			if e.via != "" {
				via = " (inside " + e.via + ")"
			}
			lo.pass.Report(e.pos,
				"lock %s acquired%s while an instance of %s is already held: same-class nesting deadlocks unless every path orders the instances identically",
				from, via, from)
		}
	}

	seen := make(map[string]bool)
	for _, start := range nodes {
		if seen[start] {
			continue
		}
		cycle := lo.findCycle(start)
		if cycle == nil {
			continue
		}
		for _, n := range cycle {
			seen[n] = true
		}
		lo.reportCycle(cycle)
	}
}

// findCycle returns the lexicographically-first simple cycle through
// start (nil if none), excluding self-edges (reported separately).
func (lo *lockOrder) findCycle(start string) []string {
	var path []string
	onPath := make(map[string]bool)
	var dfs func(node string) []string
	dfs = func(node string) []string {
		path = append(path, node)
		onPath[node] = true
		for _, next := range sortedKeys(lo.edges[node]) {
			if next == node {
				continue
			}
			if next == start && len(path) > 1 {
				return append([]string(nil), path...)
			}
			if onPath[next] {
				continue
			}
			if c := dfs(next); c != nil {
				return c
			}
		}
		path = path[:len(path)-1]
		onPath[node] = false
		return nil
	}
	return dfs(start)
}

// reportCycle renders one cycle with the site of every edge.
func (lo *lockOrder) reportCycle(cycle []string) {
	fset := lo.pass.Module.Fset
	var arrows, sites []string
	for i, from := range cycle {
		to := cycle[(i+1)%len(cycle)]
		arrows = append(arrows, from)
		e := lo.edges[from][to]
		at := fset.Position(e.pos)
		site := fmt.Sprintf("%s → %s at %s:%d", from, to, at.Filename, at.Line)
		if e.via != "" {
			site += " via " + e.via
		}
		sites = append(sites, site)
	}
	arrows = append(arrows, cycle[0])
	first := lo.edges[cycle[0]][cycle[1%len(cycle)]]
	lo.pass.Report(first.pos, "lock-order cycle: %s (%s): two goroutines taking these locks in opposite order deadlock",
		strings.Join(arrows, " → "), strings.Join(sites, "; "))
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// heldLock is one lock held at a program point.
type heldLock struct {
	at token.Pos
	// classed is false for a lock lockClass cannot identify: it is keyed by
	// its receiver's source text and counts for the blocking check only.
	classed bool
}

// heldSet maps a held lock's class (or, unclassed, its receiver's source
// text) to where it was acquired.
type heldSet map[string]heldLock

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// classes returns the sorted classes of the held locks that have one.
func (h heldSet) classes() []string {
	var out []string
	for id, l := range h {
		if l.classed {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// lockWalker threads the held-lock set through a function body in
// statement order, reporting blocking operations under a lock and
// recording acquisitions, direct nested edges, and lock-held call sites.
type lockWalker struct {
	lo  *lockOrder
	sum *lockSummary
}

func (w *lockWalker) stmts(list []ast.Stmt, held heldSet) heldSet {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

func (w *lockWalker) stmt(s ast.Stmt, held heldSet) heldSet {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if id, classed, op, ok := w.lockOp(s.X); ok {
			switch op {
			case "Lock", "RLock":
				if classed {
					for _, from := range held.classes() {
						w.lo.addEdge(lockEdge{from: from, to: id, pos: s.Pos()})
					}
					if _, ok := w.sum.acquires[id]; !ok {
						w.sum.acquires[id] = s.Pos()
					}
				}
				held[id] = heldLock{at: s.Pos(), classed: classed}
			case "Unlock", "RUnlock":
				delete(held, id)
			}
			return held
		}
		w.scan(s.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the remainder of the
		// function; other deferred calls run at exit and are walked
		// without the current held set.
		if _, _, op, ok := w.lockOp(s.Call); !ok || (op != "Unlock" && op != "RUnlock") {
			w.scan(s.Call, nil)
		}
	case *ast.GoStmt:
		// Runs on another goroutine without the caller's locks.
		w.scan(s.Call, nil)
	case *ast.SendStmt:
		w.blocking(s.Pos(), held, "channel send")
		w.scan(s.Chan, held)
		w.scan(s.Value, held)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.scan(r, held)
		}
		for _, l := range s.Lhs {
			w.scan(l, held)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scan(r, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.scan(s.Cond, held)
		w.stmts(s.Body.List, held.clone())
		if s.Else != nil {
			w.stmt(s.Else, held.clone())
		}
	case *ast.BlockStmt:
		held = w.stmts(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.scan(s.Cond, held)
		w.stmts(s.Body.List, held.clone())
	case *ast.RangeStmt:
		if t := w.lo.info.TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.blocking(s.Pos(), held, "range over channel")
			}
		}
		w.scan(s.X, held)
		w.stmts(s.Body.List, held.clone())
	case *ast.SelectStmt:
		if !hasDefault(s) {
			w.blocking(s.Pos(), held, "select without default")
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, held.clone())
			}
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.scan(s.Tag, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, held.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, held.clone())
			}
		}
	case *ast.LabeledStmt:
		held = w.stmt(s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scan(v, held)
					}
				}
			}
		}
	}
	return held
}

// scan walks an expression under the held set: it reports channel
// receives and blocking calls, and records every resolvable call for the
// lock graph. Function literal bodies run later or elsewhere; they are
// walked with no held locks, so their own acquisitions still enter the
// enclosing function's summary.
func (w *lockWalker) scan(x ast.Expr, held heldSet) {
	if x == nil {
		return
	}
	classes := held.classes()
	ast.Inspect(x, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.stmts(n.Body.List, make(heldSet))
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.blocking(n.Pos(), held, "channel receive")
			}
		case *ast.CallExpr:
			callee := calleeOf(w.lo.info, n)
			if callee == nil {
				return true
			}
			if what := blockingCall(callee); what != "" {
				w.blocking(n.Pos(), held, what)
			}
			w.recordCall(callee, classes, n.Pos())
		}
		return true
	})
}

func (w *lockWalker) recordCall(callee *types.Func, held []string, pos token.Pos) {
	if iface := interfaceRecv(callee); iface != nil {
		for _, impl := range implementations(w.lo.concrete, iface, callee) {
			w.sum.calls = append(w.sum.calls, lockCall{callee: impl, held: held, pos: pos})
		}
		return
	}
	w.sum.calls = append(w.sum.calls, lockCall{callee: callee, held: held, pos: pos})
}

// blocking reports a blocking operation if any lock is held, naming the
// lexicographically first one.
func (w *lockWalker) blocking(pos token.Pos, held heldSet, what string) {
	if len(held) == 0 {
		return
	}
	lock := sortedKeys(held)[0]
	at := w.lo.pass.Module.Fset.Position(held[lock].at)
	w.lo.pass.Report(pos, "%s while holding %s (locked at %s:%d); blocking under a mutex is the executor-deadlock shape — release the lock first or make the operation non-blocking",
		what, lock, at.Filename, at.Line)
}

// blockingCall names a call that parks the goroutine ("" for others).
func blockingCall(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	switch {
	case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	case fn.Pkg().Path() == "sync" && fn.Name() == "Wait" && recvNamed(fn) == "WaitGroup":
		return "sync.WaitGroup.Wait"
	}
	return ""
}

func hasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// recvNamed returns the name of a method's receiver named type ("" for
// functions).
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if n := namedOf(sig.Recv().Type()); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// lockOp recognizes Lock/RLock/Unlock/RUnlock calls on sync mutexes
// (including embedded ones). It returns the lock's class, or, when the
// class cannot be identified, the receiver's source text with classed
// false.
func (w *lockWalker) lockOp(x ast.Expr) (id string, classed bool, op string, ok bool) {
	call, isCall := ast.Unparen(x).(*ast.CallExpr)
	if !isCall {
		return "", false, "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", false, "", false
	}
	callee := calleeOf(w.lo.info, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return "", false, "", false
	}
	if id, ok := w.lo.lockClass(sel.X); ok {
		return id, true, name, true
	}
	return exprString(w.lo.pass.Module.Fset, sel.X), false, name, true
}

// lockClass canonicalizes the receiver of a lock operation into a lock
// class: "pkg.Type.field" for a mutex field, "pkg.Type" for a named type
// embedding a mutex, "pkg.var" for a package-level mutex. Locks it cannot
// identify (function-local mutexes, anonymous struct fields) get no class
// rather than being conflated.
func (lo *lockOrder) lockClass(x ast.Expr) (string, bool) {
	x = ast.Unparen(x)
	switch x := x.(type) {
	case *ast.SelectorExpr:
		if sel, ok := lo.info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			owner := namedOf(sel.Recv())
			if owner == nil {
				return "", false
			}
			return qualifiedName(owner) + "." + sel.Obj().Name(), true
		}
		// Package-qualified var (pkg.mu).
		if v, ok := lo.info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Name() + "." + v.Name(), true
		}
	case *ast.Ident:
		v, ok := lo.info.Uses[x].(*types.Var)
		if !ok {
			return "", false
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name(), true
		}
		// A local whose type is a named lock-bearing struct is still
		// classed by its type; a bare local sync.Mutex is unidentifiable.
		if owner := namedOf(v.Type()); owner != nil && owner.Obj().Pkg() != nil && owner.Obj().Pkg().Path() != "sync" {
			return qualifiedName(owner), true
		}
	}
	// Embedded mutex promoted through a named receiver (x.Lock() where x
	// is the struct): class by the receiver's named type.
	if owner := namedOf(lo.info.TypeOf(x)); owner != nil && owner.Obj().Pkg() != nil && owner.Obj().Pkg().Path() != "sync" {
		return qualifiedName(owner), true
	}
	return "", false
}

// namedOf strips pointers and returns the named type of t (nil if
// unnamed).
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func qualifiedName(n *types.Named) string {
	if pkg := n.Obj().Pkg(); pkg != nil {
		return pkg.Name() + "." + n.Obj().Name()
	}
	return n.Obj().Name()
}

// exprString renders an expression as source text.
func exprString(fset *token.FileSet, x ast.Expr) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, x); err != nil {
		return "<expr>"
	}
	return b.String()
}
