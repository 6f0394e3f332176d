// Package lint is mrp-lint: a determinism and concurrency static-analysis
// suite for the Multi-Ring Paxos SMR core, in the spirit of go/analysis
// but self-contained (stdlib only) and module-scoped.
//
// The replicated state machine is only correct if every replica executes
// commands, encodes checkpoints, and merges rings identically. A single
// unsorted map iteration or wall-clock read inside that deterministic path
// silently diverges replicas in a way unit tests rarely catch. mrp-lint
// makes those invariants machine-checked:
//
//   - detmap flags ranging over a map inside a deterministic function
//     unless the loop is provably order-insensitive or its collected
//     results are sorted before use.
//   - wallclock forbids time.Now/Since/Until, timer channels, and the
//     unseeded global math/rand inside deterministic functions (explicitly
//     seeded *rand.Rand instances, like SortedMap's, stay allowed).
//   - orderedresult flags dropped errors and discarded typed-redirect
//     results (statusWrongEpoch) at ordered-command call sites.
//   - lockorder reports lock-order cycles across the module and blocking
//     operations (channel operations, select without default, time.Sleep,
//     WaitGroup.Wait) made while a sync.Mutex/RWMutex is held.
//
// Checkpoint and wire codecs need no analyzer of their own: they all
// decode through msg.Reader, which bounds every wire-sourced length, and
// the snapshot encoders are deterministic roots, so detmap requires their
// map ranges to be sorted.
//
// Deterministic scope is declared with a "//mrp:deterministic" marker on
// functions or package doc comments and propagated through the call graph
// (see markers.go), so the core packages need only annotate their entry
// points, not every helper.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check, mirroring golang.org/x/tools/go/analysis
// at module granularity.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries everything an analyzer needs for one module run.
type Pass struct {
	Analyzer *Analyzer
	Module   *Module
	Markers  *Markers
	// Scope is the deterministic scope (//mrp:deterministic roots).
	Scope *Scope

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Report records a finding. Findings on lines carrying a matching
// "//mrp:nolint analyzer" comment are dropped.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Module.Fset.Position(pos)
	if p.Markers.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetMap, WallClock, OrderedResult, LockOrder}
}

// Run executes the given analyzers over a loaded module and returns the
// findings sorted by position. Malformed suppression markers (without a
// reason, or naming unknown analyzers) are reported under the "nolint"
// pseudo-analyzer regardless of which analyzers were selected — a
// suppression that doesn't parse is a hole in the gate, not a style nit.
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	markers := CollectMarkers(m)
	scope := BuildScope(m, markers)
	var diags []Diagnostic
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	markers.validate(known, func(pos token.Position, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: "nolint",
			Pos:      pos,
			Message:  fmt.Sprintf(format, args...),
		})
	})
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Module: m, Markers: markers, Scope: scope, diags: &diags}
		a.Run(pass)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// funcFor resolves the *types.Func defined by a FuncDecl.
func (m *Module) funcFor(decl *ast.FuncDecl) *types.Func {
	if obj, ok := m.Info.Defs[decl.Name].(*types.Func); ok {
		return obj
	}
	return nil
}

// eachFuncDecl visits every function declaration of every package.
func (m *Module) eachFuncDecl(fn func(pkg *Package, file *ast.File, decl *ast.FuncDecl)) {
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn(pkg, file, fd)
				}
			}
		}
	}
}

// calleeOf resolves the statically known callee of a call expression:
// a declared function, a method (through a possibly embedded selection),
// or an interface method. Returns nil for builtins, conversions, and
// dynamic calls through function values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (pkg.Func).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
