package lint

import (
	"go/ast"
	"go/types"
)

// Scope is the computed deterministic scope of a module: the set of
// functions that must be replica-deterministic, with a short provenance
// for each (how the function entered the scope).
//
// The scope starts from the marked roots (//mrp:deterministic on functions
// or package docs) and propagates through the call graph: a function
// statically called by a deterministic function is deterministic too, as
// is every concrete implementation of an interface method it calls (class
// hierarchy analysis over the marked packages — this is what carries the
// scope from smr.Replica.apply through smr.StateMachine.Execute into
// store.SM.apply). Propagation descends only into packages that carry at
// least one mrp marker: unmarked layers (transport, netsim) are
// explicit boundaries whose nondeterminism is confined behind their API.
type Scope struct {
	inScope map[*types.Func]string
	bodies  map[*types.Func]*ast.FuncDecl
}

// Deterministic returns the provenance of fn in the scope and whether it
// is in scope.
func (s *Scope) Deterministic(fn *types.Func) (string, bool) {
	why, ok := s.inScope[fn]
	return why, ok
}

// Body returns the declaration of a module function (nil for functions
// without bodies or outside the module).
func (s *Scope) Body(fn *types.Func) *ast.FuncDecl { return s.bodies[fn] }

// BuildScope computes the deterministic scope of the module;
// //mrp:nondeterministic stops propagation.
func BuildScope(m *Module, mk *Markers) *Scope {
	s := &Scope{
		inScope: make(map[*types.Func]string),
		bodies:  make(map[*types.Func]*ast.FuncDecl),
	}
	var worklist []*types.Func
	add := func(fn *types.Func, why string) {
		if fn == nil || mk.nondet[fn] {
			return
		}
		if _, ok := s.inScope[fn]; ok {
			return
		}
		s.inScope[fn] = why
		worklist = append(worklist, fn)
	}
	eligible := func(fn *types.Func) bool {
		return mk.det[fn] || (fn.Pkg() != nil && mk.eligible[fn.Pkg()])
	}

	m.eachFuncDecl(func(pkg *Package, file *ast.File, decl *ast.FuncDecl) {
		fn := m.funcFor(decl)
		if fn == nil {
			return
		}
		if decl.Body != nil {
			s.bodies[fn] = decl
		}
		switch {
		case mk.det[fn]:
			add(fn, "marked //mrp:deterministic")
		case mk.pkgDet[pkg.Types]:
			add(fn, "package "+pkg.Types.Name()+" is marked //mrp:deterministic")
		}
	})

	concrete := namedTypes(m, func(pkg *Package) bool { return mk.eligible[pkg.Types] })
	for len(worklist) > 0 {
		fn := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		body := s.bodies[fn]
		if body == nil {
			continue
		}
		via := "reached from " + relName(fn)
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(m.Info, call)
			if callee == nil {
				return true
			}
			if iface := interfaceRecv(callee); iface != nil {
				for _, impl := range implementations(concrete, iface, callee) {
					if eligible(impl) {
						add(impl, via+" (via "+relName(callee)+")")
					}
				}
				return true
			}
			if eligible(callee) {
				add(callee, via)
			}
			return true
		})
	}
	return s
}

// interfaceRecv returns the interface type fn is declared on, or nil for
// concrete functions and methods.
func interfaceRecv(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// namedTypes collects the named (non-interface) types declared in the
// packages keep accepts — the candidate set for interface resolution.
func namedTypes(m *Module, keep func(*Package) bool) []types.Type {
	var out []types.Type
	for _, pkg := range m.Pkgs {
		if !keep(pkg) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
				continue
			}
			out = append(out, tn.Type())
		}
	}
	return out
}

// implementations finds the concrete methods that an interface method call
// can dispatch to among the candidate types.
func implementations(candidates []types.Type, iface *types.Interface, method *types.Func) []*types.Func {
	var out []*types.Func
	for _, t := range candidates {
		var impl types.Type
		switch {
		case types.Implements(t, iface):
			impl = t
		case types.Implements(types.NewPointer(t), iface):
			impl = types.NewPointer(t)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, method.Pkg(), method.Name())
		if f, ok := obj.(*types.Func); ok {
			out = append(out, f)
		}
	}
	return out
}

// relName renders a function name with its receiver but without the
// package path ("(*Replica).apply").
func relName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		return types.TypeString(sig.Recv().Type(), func(*types.Package) string { return "" }) + "." + fn.Name()
	}
	return fn.Name()
}
