package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Marker comments understood by the suite. Markers are ordinary line
// comments with no space after "//", mirroring "//go:" directives:
//
//	//mrp:deterministic
//	    On a function's doc comment: the function is a deterministic
//	    root — it and everything it (statically) calls inside marked
//	    packages must be replica-deterministic. On a package doc
//	    comment: every function of the package is a root.
//
//	//mrp:nondeterministic
//	    On a function's doc comment: stop propagation here. Used for
//	    deliberate boundaries (e.g. a scheduling loop whose timing is
//	    free but whose callees are not).
//
//	//mrp:ordered [status]
//	    On a function's doc comment: calls to it are ordered-command
//	    submissions. Callers must consume its error result; with the
//	    "status" argument they must also consume its first result
//	    (the reply carrying typed redirects such as statusWrongEpoch).
//
//	//mrp:leaseclock
//	    On a function's doc comment: the function is the module's single
//	    sanctioned wall-clock read inside deterministic scope (the lease
//	    protocol's local liveness clock). wallclock permits time.Now in
//	    its body — nothing else, nowhere else — and flags every site
//	    beyond the first.
//
//	//mrp:nolint analyzer[,analyzer] — reason
//	    On the offending line, or alone on the line above: suppress the
//	    named analyzers' findings there. A non-empty reason after the
//	    "—" separator is mandatory, and every named analyzer must
//	    exist; malformed markers are themselves findings.
//
//	//mrp:orderinsensitive — reason
//	    Sugar for "//mrp:nolint detmap": asserts a map iteration is
//	    order-insensitive for a reason the analyzer cannot prove.
const markerPrefix = "//mrp:"

// Markers is the parsed marker set of a module.
type Markers struct {
	// det holds explicitly marked deterministic roots.
	det map[*types.Func]bool
	// nondet holds explicit propagation stops.
	nondet map[*types.Func]bool
	// ordered maps marked ordered-command functions to their argument
	// ("" or "status").
	ordered map[*types.Func]string
	// leaseClock lists //mrp:leaseclock-marked functions in collection
	// order; the wallclock analyzer admits exactly one.
	leaseClock []*types.Func
	// pkgDet marks packages whose package doc declares //mrp:deterministic.
	pkgDet map[*types.Package]bool
	// eligible marks packages containing at least one mrp marker: the
	// deterministic call graph only descends into eligible packages, so
	// unmarked layers (transport, netsim) are propagation boundaries.
	eligible map[*types.Package]bool
	// suppress maps analyzer name -> "file:line" keys where findings are
	// muted by //mrp:nolint (or its sugar forms).
	suppress map[string]map[string]bool
	// marks records every suppression marker for validation.
	marks []suppressionMark
}

// suppressionMark is one //mrp:nolint or //mrp:orderinsensitive comment,
// kept for Run-level validation.
type suppressionMark struct {
	verb   string
	names  []string
	reason string
	hasSep bool
	pos    token.Position
}

// CollectMarkers parses every marker comment of the module.
func CollectMarkers(m *Module) *Markers {
	mk := &Markers{
		det:      make(map[*types.Func]bool),
		nondet:   make(map[*types.Func]bool),
		ordered:  make(map[*types.Func]string),
		pkgDet:   make(map[*types.Package]bool),
		eligible: make(map[*types.Package]bool),
		suppress: make(map[string]map[string]bool),
	}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			if hasMarker(file.Doc, "deterministic") {
				mk.pkgDet[pkg.Types] = true
				mk.eligible[pkg.Types] = true
			}
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := m.funcFor(fd)
				if fn == nil {
					continue
				}
				if hasMarker(fd.Doc, "deterministic") {
					mk.det[fn] = true
					mk.eligible[pkg.Types] = true
				}
				if hasMarker(fd.Doc, "nondeterministic") {
					mk.nondet[fn] = true
					mk.eligible[pkg.Types] = true
				}
				if arg, ok := markerArg(fd.Doc, "ordered"); ok {
					mk.ordered[fn] = arg
					mk.eligible[pkg.Types] = true
				}
				if hasMarker(fd.Doc, "leaseclock") {
					mk.leaseClock = append(mk.leaseClock, fn)
					mk.eligible[pkg.Types] = true
				}
			}
			mk.collectSuppressions(m, file)
		}
	}
	return mk
}

// reasonSep separates a suppression's analyzer list from its mandatory
// human reason.
const reasonSep = "—"

// cutReason splits the tail of a suppression marker at the — separator.
func cutReason(s string) (reason string, hasSep bool) {
	after, ok := strings.CutPrefix(strings.TrimSpace(s), reasonSep)
	if !ok {
		return "", false
	}
	return strings.TrimSpace(after), true
}

// collectSuppressions records //mrp:nolint comments and their sugar form
// //mrp:orderinsensitive (detmap): they mute the named analyzers on their
// own line and on the following line (covering both trailing and
// preceding placement). Each marker is also recorded verbatim so Run can
// validate it: the reason after the "—" separator must be non-empty, and
// every named analyzer must exist.
func (mk *Markers) collectSuppressions(m *Module, file *ast.File) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, markerPrefix)
			if !ok {
				continue
			}
			verb, rest, _ := strings.Cut(text, " ")
			var names []string
			var reason string
			var hasSep bool
			switch verb {
			case "nolint":
				args, tail, _ := strings.Cut(strings.TrimSpace(rest), " ")
				if args == reasonSep {
					// "//mrp:nolint — reason": no analyzer named; keep the
					// separator with the tail so the reason still parses and
					// only the names-no-analyzer finding fires.
					args, tail = "", reasonSep+" "+tail
				}
				for _, name := range strings.Split(args, ",") {
					if name = strings.TrimSpace(name); name != "" {
						names = append(names, name)
					}
				}
				reason, hasSep = cutReason(tail)
			case "orderinsensitive":
				names = []string{"detmap"}
				reason, hasSep = cutReason(rest)
			default:
				continue
			}
			pos := m.Fset.Position(c.Pos())
			mk.marks = append(mk.marks, suppressionMark{
				verb: verb, names: names, reason: reason, hasSep: hasSep, pos: pos,
			})
			for _, name := range names {
				set := mk.suppress[name]
				if set == nil {
					set = make(map[string]bool)
					mk.suppress[name] = set
				}
				set[lineKey(pos.Filename, pos.Line)] = true
				set[lineKey(pos.Filename, pos.Line+1)] = true
			}
		}
	}
}

// validate reports malformed markers: suppressions with a missing or
// empty reason (an empty reason after the separator — e.g. a comment
// ending in "— " — counts as missing), suppressions naming analyzers
// that don't exist (which would otherwise silently suppress nothing),
// and nolint markers naming no analyzer at all. known holds the full
// analyzer registry.
func (mk *Markers) validate(known map[string]bool, report func(pos token.Position, format string, args ...any)) {
	for _, s := range mk.marks {
		if s.verb == "nolint" && len(s.names) == 0 {
			report(s.pos, `//mrp:nolint names no analyzer: want "//mrp:nolint analyzer[,analyzer] — reason"`)
		}
		if !s.hasSep || s.reason == "" {
			report(s.pos, "//mrp:%s suppression has no reason: a non-empty reason after the %s separator is mandatory", s.verb, reasonSep)
		}
		if s.verb != "nolint" {
			continue
		}
		for _, name := range s.names {
			if !known[name] {
				report(s.pos, "//mrp:nolint names unknown analyzer %q (known: %s); it suppresses nothing", name, knownNames(known))
			}
		}
	}
}

// knownNames renders the analyzer registry for an error message.
func knownNames(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for name := range known {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func lineKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}

// suppressed reports whether a finding of the analyzer at the position is
// muted by a nolint marker.
func (mk *Markers) suppressed(analyzer string, pos token.Position) bool {
	set := mk.suppress[analyzer]
	if set == nil {
		return false
	}
	return set[lineKey(pos.Filename, pos.Line)]
}

// hasMarker reports whether a comment group contains the marker verb with
// no argument required.
func hasMarker(doc *ast.CommentGroup, verb string) bool {
	_, ok := markerArg(doc, verb)
	return ok
}

// markerArg returns the argument of a marker comment ("//mrp:verb arg")
// within a doc comment group, and whether the marker is present.
func markerArg(doc *ast.CommentGroup, verb string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, markerPrefix)
		if !ok {
			continue
		}
		v, rest, _ := strings.Cut(text, " ")
		if v != verb {
			continue
		}
		arg, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
		return arg, true
	}
	return "", false
}

// LeaseClockSites returns the //mrp:leaseclock-marked functions in
// collection order.
func (mk *Markers) LeaseClockSites() []*types.Func {
	return append([]*types.Func(nil), mk.leaseClock...)
}

// OrderedArg returns the //mrp:ordered argument for fn ("" when unmarked;
// use the second result to distinguish).
func (mk *Markers) OrderedArg(fn *types.Func) (string, bool) {
	arg, ok := mk.ordered[fn]
	return arg, ok
}
