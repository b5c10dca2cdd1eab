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

// goTestRun matches one `go test ... -run '<pattern>' ...` command line of
// the CI workflow (continuation lines already joined).
var goTestRun = regexp.MustCompile(`go test .*-run '([^']*)'`)

// TestCIRunPatternsMatchTests guards the CI workflow against -run
// patterns that select nothing: `go test -run X` passes silently when no
// test matches X, so a renamed test would drop out of its CI job unseen.
// Every alternative of every -run pattern must match at least one Test or
// Fuzz function declared in the packages the command names.
func TestCIRunPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.ReplaceAll(string(raw), "\\\n", " ")
	checked := 0
	for _, line := range strings.Split(joined, "\n") {
		m := goTestRun.FindStringSubmatch(line)
		if m == nil {
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
		for _, alt := range strings.Split(m[1], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-run alternative %q: %v", alt, err)
				continue
			}
			checked++
			if !anyMatch(re, names) {
				t.Errorf("-run alternative %q in %q matches no Test or Fuzz function", alt, strings.TrimSpace(line))
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run patterns in the CI workflow")
	}
	t.Logf("%d -run alternatives each match a test", checked)
}

// testFuncs returns the Test and Fuzz functions declared in the _test.go
// files of a package directory (a trailing /... includes subdirectories).
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
			if name := fn.Name.Name; strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz") {
				names = append(names, name)
			}
		}
		return nil
	}
	if err := filepath.WalkDir(dir, walk); err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	return names
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
