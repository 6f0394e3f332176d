package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked package of the analyzed module.
type Package struct {
	// Path is the import path ("mrp/internal/smr").
	Path string
	// Dir is the directory holding the package's files.
	Dir string
	// Files are the parsed source files, in filename order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
}

// Module is a fully loaded and type-checked module: the unit the linter
// analyzes. Unlike go/analysis, which runs per package, the deterministic
// scope propagates through cross-package calls (Replica.apply executes a
// store.SM through an interface), so the whole module is loaded into one
// consistent type universe.
type Module struct {
	Fset *token.FileSet
	// Pkgs are the module's packages in dependency (topological) order.
	Pkgs []*Package
	// Info holds type information for every file of every package.
	Info *types.Info
	// byPath indexes Pkgs by import path.
	byPath map[string]*Package
}

// loader type-checks a set of directories into one Module, resolving
// module-internal imports from its own set and everything else (stdlib)
// from source via go/importer. It needs no network and no go/packages.
type loader struct {
	fset    *token.FileSet
	std     types.Importer
	info    *types.Info
	pkgs    map[string]*Package
	loading map[string]bool
	// srcs maps import path -> directory, for lazy module-internal loads.
	srcs  map[string]string
	tests bool
}

func newLoader(tests bool) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		srcs:    make(map[string]string),
		tests:   tests,
	}
}

// Import implements types.Importer: module-internal packages come from the
// loader's own set (type-checking them on demand), everything else from the
// stdlib source importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dir, ok := ld.srcs[path]; ok {
		p, err := ld.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return ld.std.Import(path)
}

// load parses and type-checks one module package (once).
func (ld *loader) load(path, dir string) (*Package, error) {
	if p, ok := ld.pkgs[path]; ok {
		return p, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	names, err := goFilesIn(dir, ld.tests)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		// External test packages (package foo_test) would need a second
		// type-check universe; skip them.
		if strings.HasSuffix(f.Name.Name, "_test") {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: only external test files in %s", dir)
	}
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, ld.info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg}
	ld.pkgs[path] = p
	return p, nil
}

// goFilesIn lists the buildable Go files of a directory in sorted order.
func goFilesIn(dir string, tests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadModule loads and type-checks the Go module rooted at root. Patterns
// select packages: "./..." (everything), "./dir/..." (a subtree), or a
// plain relative directory. Test files are included when tests is set
// (in-package tests only; external _test packages are always skipped).
//
// Non-module imports (the standard library) are resolved from compiled
// export data when `go list -export -deps` can provide it — CI shares
// the build cache between the build and lint steps, so this skips
// re-type-checking the stdlib from source — falling back to the source
// importer when the go tool or the export data is unavailable.
func LoadModule(root string, tests bool, patterns ...string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modName, err := moduleName(root)
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	srcs := make(map[string]string, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modName
		if rel != "." {
			path = modName + "/" + filepath.ToSlash(rel)
		}
		srcs[path] = dir
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selected := make(map[string]bool)
	for _, pat := range patterns {
		if err := selectPattern(selected, srcs, modName, root, pat); err != nil {
			return nil, err
		}
	}
	var paths []string
	for p := range selected {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	load := func(std types.Importer) (*Module, error) {
		ld := newLoader(tests)
		if std != nil {
			ld.std = std
		}
		for p, dir := range srcs {
			ld.srcs[p] = dir
		}
		m := &Module{Fset: ld.fset, Info: ld.info, byPath: make(map[string]*Package)}
		for _, p := range paths {
			pkg, err := ld.load(p, ld.srcs[p])
			if err != nil {
				return nil, err
			}
			m.add(pkg)
		}
		// Dependencies pulled in by the selection are part of the module
		// too (markers may live there); include every loaded module package.
		for p, pkg := range ld.pkgs {
			if _, ok := m.byPath[p]; !ok {
				m.add(pkg)
			}
		}
		sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
		return m, nil
	}

	// Try export data first and retry from source on any failure: a
	// stale or partial build cache must degrade, not break the lint.
	if files := exportFiles(root); files != nil {
		if m, err := load(exportImporter(files)); err == nil {
			return m, nil
		}
	}
	return load(nil)
}

// exportFiles runs one `go list -export -deps ./...` and maps import
// paths to their compiled export-data files (nil when the go tool, the
// module, or the cache cannot provide them).
func exportFiles(root string) map[string]string {
	cmd := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return nil
	}
	files := make(map[string]string)
	for _, line := range strings.Split(string(out), "\n") {
		path, file, ok := strings.Cut(line, "\t")
		if !ok || file == "" {
			continue
		}
		files[path] = file
	}
	if len(files) == 0 {
		return nil
	}
	return files
}

// exportImporter resolves imports from compiled export data.
func exportImporter(files map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(token.NewFileSet(), "gc", lookup)
}

func (m *Module) add(pkg *Package) {
	m.Pkgs = append(m.Pkgs, pkg)
	m.byPath[pkg.Path] = pkg
}

// selectPattern resolves one package pattern against the known source dirs.
func selectPattern(out map[string]bool, srcs map[string]string, modName, root, pat string) error {
	switch {
	case pat == "./..." || pat == "...":
		for p := range srcs {
			out[p] = true
		}
	case strings.HasSuffix(pat, "/..."):
		base := strings.TrimSuffix(pat, "/...")
		base = strings.TrimPrefix(base, "./")
		prefix := modName
		if base != "" && base != "." {
			prefix = modName + "/" + filepath.ToSlash(base)
		}
		found := false
		for p := range srcs {
			if p == prefix || strings.HasPrefix(p, prefix+"/") {
				out[p] = true
				found = true
			}
		}
		if !found {
			return fmt.Errorf("lint: pattern %q matched no packages", pat)
		}
	default:
		rel := strings.TrimPrefix(pat, "./")
		path := modName
		if rel != "" && rel != "." {
			path = modName + "/" + filepath.ToSlash(rel)
		}
		if _, ok := srcs[path]; !ok {
			if _, ok := srcs[pat]; ok { // full import path given
				path = pat
			} else {
				return fmt.Errorf("lint: pattern %q matched no packages", pat)
			}
		}
		out[path] = true
	}
	return nil
}

// moduleName reads the module path from go.mod.
func moduleName(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(rest); err == nil {
				rest = unq
			}
			return rest, nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// packageDirs walks the module tree for directories containing Go files,
// skipping testdata, hidden, and underscore-prefixed directories and, as
// the go tool does, nested modules (directories with their own go.mod).
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != root && err == nil {
				return filepath.SkipDir
			}
			has, err := hasGoFiles(path)
			if err != nil {
				return err
			}
			if has {
				dirs = append(dirs, path)
			}
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") && !strings.HasPrefix(e.Name(), "_") {
			return true, nil
		}
	}
	return false, nil
}
