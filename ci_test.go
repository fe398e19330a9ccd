package wasabi_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsSelectTests fails a CI step that would select nothing: `go
// test -run` with a stale name passes while running no test, and a stale
// `-fuzz` name fuzzes nothing. Every |-separated alternative of every -run
// pattern in the workflow except '^$', cut at its first '/', must match a
// Test function of the repository's _test.go files, and every -fuzz pattern
// a Fuzz function.
func TestCIPatternsSelectTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string][]string{} // "Test" or "Fuzz" -> function names
	decl := regexp.MustCompile(`(?m)^func ((Test|Fuzz)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs[string(m[2])] = append(funcs[string(m[2])], string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	selects := func(pattern, kind string) bool {
		re, err := regexp.Compile(pattern)
		if err != nil {
			t.Errorf("ci.yml: -%s pattern %q does not compile: %v", strings.ToLower(kind), pattern, err)
			return true
		}
		for _, name := range funcs[kind] {
			if re.MatchString(name) {
				return true
			}
		}
		return false
	}
	var runs, fuzzes int
	flagRE := regexp.MustCompile(`\s-(run|fuzz)[ =]('[^']*'|"[^"]*"|\S+)`)
	var matches [][]string
	for _, line := range strings.Split(string(ci), "\n") {
		if strings.Contains(line, "go test ") {
			matches = append(matches, flagRE.FindAllStringSubmatch(line, -1)...)
		}
	}
	for _, m := range matches {
		pattern := strings.Trim(m[2], `'"`)
		if m[1] == "fuzz" {
			fuzzes++
			if !selects(pattern, "Fuzz") {
				t.Errorf("ci.yml: -fuzz %q matches no Fuzz function", pattern)
			}
			continue
		}
		for _, alt := range strings.Split(pattern, "|") {
			if alt == "^$" {
				continue
			}
			alt, _, _ = strings.Cut(alt, "/")
			runs++
			if !selects(alt, "Test") {
				t.Errorf("ci.yml: -run alternative %q (of %q) matches no Test function", alt, pattern)
			}
		}
	}
	if runs == 0 || fuzzes == 0 {
		t.Fatalf("found %d -run alternatives and %d -fuzz patterns in ci.yml; the patterns are broken", runs, fuzzes)
	}
	t.Logf("checked %d -run alternatives and %d -fuzz patterns", runs, fuzzes)
}
