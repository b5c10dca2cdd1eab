package harmony_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goTestPattern matches one quoted -run or -bench pattern of a `go test`
// command line of the CI workflow (continuation lines already joined).
var goTestPattern = regexp.MustCompile(`\s-(run|bench) '([^']*)'`)

// noTests is the explicit "run no tests" pattern, as in a benchmark-only
// step: it selects nothing on purpose.
const noTests = "^$"

// TestCIRunPatternsMatchTests guards the CI workflow against -run and
// -bench patterns that select nothing: `go test -run X` passes silently
// when no test matches X, so a renamed test would drop out of its CI job
// unseen. Every alternative of every -run pattern except noTests must match
// at least one Test or Fuzz function, and every alternative of every
// -bench pattern at least one Benchmark function, declared in the packages
// the command names.
func TestCIRunPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.ReplaceAll(string(raw), "\\\n", " ")
	checked := 0
	for _, line := range strings.Split(joined, "\n") {
		if !strings.Contains(line, "go test ") {
			continue
		}
		patterns := goTestPattern.FindAllStringSubmatch(line, -1)
		if patterns == nil {
			continue
		}
		var names []string
		for _, field := range strings.Fields(line) {
			if strings.HasPrefix(field, "./") {
				names = append(names, testFuncs(t, field)...)
			}
		}
		if len(names) == 0 {
			t.Errorf("%q names no package with tests", strings.TrimSpace(line))
			continue
		}
		for _, p := range patterns {
			flag, pattern := p[1], p[2]
			if flag == "run" && pattern == noTests {
				continue
			}
			kinds := []string{"Test", "Fuzz"}
			if flag == "bench" {
				kinds = []string{"Benchmark"}
			}
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("-%s alternative %q: %v", flag, alt, err)
					continue
				}
				checked++
				if !anyMatch(re, names, kinds) {
					t.Errorf("-%s alternative %q in %q matches no %s function", flag, alt, strings.TrimSpace(line), strings.Join(kinds, " or "))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -bench patterns in the CI workflow")
	}
	t.Logf("%d -run and -bench alternatives checked", checked)
}

// testFuncs returns the Test, Fuzz and Benchmark functions declared in the
// _test.go files of a package directory (a trailing /... includes
// subdirectories).
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	dir, recursive := strings.CutSuffix(filepath.Clean(pkg), string(filepath.Separator)+"...")
	var names []string
	walk := func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && !recursive {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, kind := range []string{"Test", "Fuzz", "Benchmark"} {
				if strings.HasPrefix(fn.Name.Name, kind) {
					names = append(names, fn.Name.Name)
				}
			}
		}
		return nil
	}
	if err := filepath.WalkDir(dir, walk); err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	return names
}

// anyMatch reports whether re matches a name with one of the prefixes.
func anyMatch(re *regexp.Regexp, names, prefixes []string) bool {
	for _, n := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(n, p) && re.MatchString(n) {
				return true
			}
		}
	}
	return false
}
