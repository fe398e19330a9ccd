package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wasabi/internal/spectest"
	"wasabi/internal/synthapp"
	"wasabi/internal/wasm"
)

// TestRunInspectGolden pins the -inspect report byte for byte on the
// spectest corpus and one small synthetic application: the static profile
// (blocks, reachable blocks, stack high-water, dead functions, indirect
// fan-out) and every analysis's hook-site counts. Each module's report
// follows a "== name ==" line in testdata/inspect.golden.
func TestRunInspectGolden(t *testing.T) {
	var buf bytes.Buffer
	report := func(name string, m *wasm.Module) {
		fmt.Fprintf(&buf, "== %s ==\n", name)
		if err := runInspect(m, &buf); err != nil {
			t.Fatalf("%s: runInspect: %v", name, err)
		}
	}
	for _, c := range spectest.Corpus() {
		report("spectest/"+c.Name, c.Module())
	}
	report("synthapp/4000-seed1", synthapp.Generate(synthapp.Config{TargetBytes: 4000, Seed: 1, Helpers: 3}))

	path := filepath.Join("testdata", "inspect.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(got) && i < len(exp) && got[i] == exp[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return fmt.Sprintf("%q", lines[i])
		}
		return "end of report"
	}
	t.Fatalf("%s:%d: report differs\n got: %s\nwant: %s", path, i+1, line(got), line(exp))
}
