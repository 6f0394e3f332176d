// Command mrp-lint runs the determinism and concurrency static-analysis
// suite (internal/lint) over the module: detmap, wallclock,
// orderedresult and lockorder. CI runs it as
//
//	go run ./cmd/mrp-lint ./...
//
// and fails the build on any finding; the final stderr line
// ("mrp-lint: N finding(s) ...") is always printed, so CI turns it into
// a build annotation. See docs/DETERMINISM.md for the invariants it
// checks and the //mrp: annotation convention.
//
// Usage:
//
//	mrp-lint [-tests] [-a name[,name]] [packages...]
//
// Packages default to ./... relative to the module root (found by walking
// up from the working directory to go.mod).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mrp/internal/lint"
)

func main() {
	tests := flag.Bool("tests", false, "also analyze in-package _test.go files")
	only := flag.String("a", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mrp-lint [-tests] [-a names] [packages...]\n\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fatal(err)
	}
	m, err := lint.LoadModule(root, *tests, flag.Args()...)
	if err != nil {
		fatal(err)
	}
	diags := lint.Run(m, analyzers)
	for _, d := range diags {
		fmt.Printf("%s:%d:%d: [%s] %s\n", rel(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	// Always print the summary (CI scrapes it into a build annotation).
	fmt.Fprintf(os.Stderr, "mrp-lint: %d finding(s) from %d analyzer(s) over %d package(s)\n",
		len(diags), len(analyzers), len(m.Pkgs))
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func selectAnalyzers(names string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer)
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("mrp-lint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("mrp-lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func rel(root, name string) string {
	if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return name
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
