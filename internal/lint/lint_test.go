package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// loadFixture type-checks fixture packages from testdata/src. Each name
// is both the directory and the import path, so fixtures can import each
// other by directory name.
func loadFixture(t *testing.T, names ...string) *Module {
	t.Helper()
	ld := newLoader(false)
	for _, name := range names {
		abs, err := filepath.Abs(filepath.Join("testdata", "src", name))
		if err != nil {
			t.Fatal(err)
		}
		ld.srcs[name] = abs
	}
	m := &Module{Fset: ld.fset, Info: ld.info, byPath: make(map[string]*Package)}
	for _, name := range names {
		pkg, err := ld.load(name, ld.srcs[name])
		if err != nil {
			t.Fatalf("loading fixture %s: %v", name, err)
		}
		if m.byPath[name] == nil {
			m.add(pkg)
		}
	}
	return m
}

// wantRE extracts the quoted expectations of one `// want "..." "..."`
// comment.
var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectations scans fixture sources for `// want` comments and returns
// file:line -> pending expectation substrings.
func expectations(t *testing.T, m *Module) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	seen := make(map[string]bool)
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			name := m.Fset.Position(f.Pos()).Filename
			if seen[name] {
				continue
			}
			seen[name] = true
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				_, spec, ok := strings.Cut(line, "// want ")
				if !ok {
					continue
				}
				key := lineKey(name, i+1)
				for _, match := range wantRE.FindAllStringSubmatch(spec, -1) {
					text, err := strconv.Unquote(`"` + match[1] + `"`)
					if err != nil {
						t.Fatalf("%s: bad want %q: %v", key, match[1], err)
					}
					wants[key] = append(wants[key], text)
				}
			}
		}
	}
	return wants
}

// runFixture runs analyzers over fixture packages and diffs the findings
// against the `// want` expectations.
func runFixture(t *testing.T, analyzers []*Analyzer, names ...string) {
	t.Helper()
	m := loadFixture(t, names...)
	wants := expectations(t, m)
	diags := Run(m, analyzers)
	for _, d := range diags {
		key := lineKey(d.Pos.Filename, d.Pos.Line)
		idx := -1
		for i, w := range wants[key] {
			if strings.Contains(d.Message, w) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Errorf("unexpected finding at %s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
			continue
		}
		wants[key] = append(wants[key][:idx], wants[key][idx+1:]...)
	}
	for key, remaining := range wants {
		for _, w := range remaining {
			t.Errorf("missing finding at %s: want %q", key, w)
		}
	}
}

func TestDetMapFixture(t *testing.T) {
	runFixture(t, []*Analyzer{DetMap}, "detmapa")
}

func TestWallClockFixture(t *testing.T) {
	runFixture(t, []*Analyzer{WallClock}, "wallclocka")
}

// TestLeaseClockFixture pins the scoped //mrp:leaseclock allowance: one
// marked site may call time.Now, everything else in deterministic scope
// still fails, and a duplicate marker is flagged and unexempted.
func TestLeaseClockFixture(t *testing.T) {
	runFixture(t, []*Analyzer{WallClock}, "leaseclocka")
}

// TestLockedBlockFixture covers lockorder's blocking-under-a-lock check:
// every blocking shape, the non-blocking and other-goroutine allowances,
// and a function-local mutex that has no lock class but still counts as
// held.
func TestLockedBlockFixture(t *testing.T) {
	runFixture(t, []*Analyzer{LockOrder}, "lockedblocka")
}

func TestOrderedResultFixture(t *testing.T) {
	runFixture(t, []*Analyzer{OrderedResult}, "ordereda")
}

func TestOrderedTxnFixture(t *testing.T) {
	runFixture(t, []*Analyzer{OrderedResult}, "orderedtxn")
}

// TestBatchPipeFixture covers the SMR batching/pipelining shapes: the
// deterministic batch codec and the ordered batched-submit path.
func TestBatchPipeFixture(t *testing.T) {
	runFixture(t, []*Analyzer{DetMap, OrderedResult}, "batchpipe")
}

// TestPropagationFixture proves the scope crosses package boundaries
// through interfaces (CHA), descends only into marked packages, and
// stops at //mrp:nondeterministic.
func TestPropagationFixture(t *testing.T) {
	runFixture(t, []*Analyzer{DetMap, WallClock}, "propa", "propb", "propc")
}

// TestPropagationProvenance pins the scope computation itself: which
// functions ended up deterministic and why.
func TestPropagationProvenance(t *testing.T) {
	m := loadFixture(t, "propa", "propb", "propc")
	mk := CollectMarkers(m)
	scope := BuildScope(m, mk)
	got := make(map[string]bool)
	for fn := range scope.inScope {
		got[fn.Pkg().Name()+"."+relName(fn)] = true
	}
	for _, want := range []string{"propa.Apply", "propb.*Machine.Execute", "propb.*Machine.stamp"} {
		if !got[want] {
			t.Errorf("expected %s in deterministic scope; scope = %v", want, keysOf(got))
		}
	}
	for _, bad := range []string{"propb.*Machine.observe", "propc.Boundary"} {
		if got[bad] {
			t.Errorf("%s must not be in deterministic scope", bad)
		}
	}
}

func keysOf(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestLockOrderFixture covers the in-package lock-graph shapes: the
// opposite-order cycle and same-class nesting.
func TestLockOrderFixture(t *testing.T) {
	runFixture(t, []*Analyzer{LockOrder}, "lockordera")
}

// TestLockIfaceFixture pins the cross-package interface-dispatch cycle:
// neither package alone contains one, so the finding exists only because
// the lock graph follows CHA-resolved calls.
func TestLockIfaceFixture(t *testing.T) {
	runFixture(t, []*Analyzer{LockOrder}, "lockifacea", "lockifaceb")
}

// TestNolintValidation pins suppression validation over the nolinta
// fixture with direct assertions (a `// want` comment cannot share a
// line with the marker it would re-parse): missing or empty reasons,
// unknown analyzer names and nameless nolints are findings — and a
// failed-validation suppression still mutes, so silence stays silenced
// but never silent about itself.
func TestNolintValidation(t *testing.T) {
	m := loadFixture(t, "nolinta")
	file := ""
	for _, pkg := range m.Pkgs {
		file = m.Fset.Position(pkg.Files[0].Pos()).Filename
	}
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")
	lineOf := func(sentinel string) int {
		t.Helper()
		for i, l := range lines {
			if strings.Contains(l, sentinel) {
				return i + 1
			}
		}
		t.Fatalf("sentinel %q not found in %s", sentinel, file)
		return 0
	}
	// emptyReason's marker is a strict prefix of the baseline's, so it is
	// identified by its line ending in the bare separator.
	emptyReasonLine := 0
	for i, l := range lines {
		if strings.HasSuffix(strings.TrimRight(l, " \t"), "//mrp:nolint wallclock —") {
			emptyReasonLine = i + 1
		}
	}
	if emptyReasonLine == 0 {
		t.Fatal("empty-reason marker line not found")
	}

	diags := Run(m, []*Analyzer{WallClock})
	type finding struct {
		line int
		sub  string
	}
	has := func(f finding) bool {
		for _, d := range diags {
			if d.Pos.Line == f.line && strings.Contains(d.Message, f.sub) {
				return true
			}
		}
		return false
	}
	for _, f := range []finding{
		{emptyReasonLine, "suppression has no reason"},
		{lineOf("because reasons need a separator"), "suppression has no reason"},
		{lineOf("the analyzer name is a typo"), `unknown analyzer "wallcheck"`},
		{lineOf("the analyzer name is a typo"), "time.Now reads the wall clock"},
		{lineOf("a dangling reason with nothing to suppress"), "names no analyzer"},
	} {
		if !has(f) {
			t.Errorf("missing finding at %s:%d containing %q; got %v", file, f.line, f.sub, diags)
		}
	}
	// The sanctioned suppression and the muted-but-flagged ones must not
	// leak wallclock findings; the nameless nolint must not be reported
	// as missing a reason (its reason is fine, its name list is not).
	for _, f := range []finding{
		{lineOf("the sanctioned baseline suppression"), ""},
		{emptyReasonLine, "wall clock"},
		{lineOf("because reasons need a separator"), "wall clock"},
		{lineOf("a dangling reason with nothing to suppress"), "no reason"},
	} {
		for _, d := range diags {
			if d.Pos.Line == f.line && (f.sub == "" || strings.Contains(d.Message, f.sub)) {
				t.Errorf("unwanted finding at %s:%d: [%s] %s", file, f.line, d.Analyzer, d.Message)
			}
		}
	}
}

func ExampleAnalyzers() {
	for _, a := range Analyzers() {
		fmt.Println(a.Name)
	}
	// Output:
	// detmap
	// wallclock
	// orderedresult
	// lockorder
}
