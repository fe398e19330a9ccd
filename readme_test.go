package wasabi_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestReadmeCitesBenchFigures pins each BENCH_fig9.json figure the README
// cites to its key: the printed figure must be within half a unit of its
// last printed digit of the recorded value, so the prose cannot drift from
// the numbers again. Refreshing BENCH_fig9.json means updating the README
// figures with it.
func TestReadmeCitesBenchFigures(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("BENCH_fig9.json")
	if err != nil {
		t.Fatal(err)
	}
	type reference struct {
		BaselineNsPerOp float64 `json:"baseline_ns_per_op"`
		BinaryRatio     float64 `json:"binary_ratio"`
		AllRatio        float64 `json:"all_ratio"`
	}
	var bench struct {
		Stream struct {
			EventsPerSec float64 `json:"events_per_sec"`
		} `json:"stream"`
		Fuel struct {
			Ratio float64 `json:"ratio"`
		} `json:"fuel"`
		PR1 reference `json:"pr1_reference"`
		PR2 reference `json:"pr2_reference"`
		PR3 reference `json:"pr3_reference"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatalf("BENCH_fig9.json: %v", err)
	}
	pr1, pr2, pr3 := bench.PR1, bench.PR2, bench.PR3

	// Line breaks in the prose are plain spaces to the patterns.
	text := strings.Join(strings.Fields(string(readme)), " ")
	const num = `([0-9]+(?:\.[0-9]+)?)`
	for _, c := range []struct {
		name    string
		pattern string
		keys    []float64 // one per captured figure, in the figure's unit
	}{
		{"stream.events_per_sec", `under .stream. \(` + num + ` M events/s`, []float64{bench.Stream.EventsPerSec / 1e6}},
		{"fuel.ratio", `Metered execution takes ` + num + `x the unmetered time`, []float64{bench.Fuel.Ratio}},
		{
			"Against PR 1: pr1_reference -> pr2_reference",
			`Against PR 1 [^:]*: Fig 9 baseline ` + num + ` ms → ` + num + ` ms, binary-hook ratio ` + num +
				`x → ~` + num + `x, all-hooks ratio ` + num + `x → ~` + num + `x`,
			[]float64{
				pr1.BaselineNsPerOp / 1e6, pr2.BaselineNsPerOp / 1e6,
				pr1.BinaryRatio, pr2.BinaryRatio, pr1.AllRatio, pr2.AllRatio,
			},
		},
		{
			"Against PR 2: pr2_reference -> pr3_reference",
			`Against PR 2 [^:]*: binary-hook ratio ~` + num + `x → ~` + num + `x, all-hooks ratio ~` + num + `x → ~` + num + `x`,
			[]float64{pr2.BinaryRatio, pr3.BinaryRatio, pr2.AllRatio, pr3.AllRatio},
		},
	} {
		m := regexp.MustCompile(c.pattern).FindStringSubmatch(text)
		if m == nil {
			t.Errorf("%s: README no longer cites it in the expected sentence (pattern %q)", c.name, c.pattern)
			continue
		}
		for i, key := range c.keys {
			printed := m[i+1]
			v, err := strconv.ParseFloat(printed, 64)
			if err != nil {
				t.Fatal(err)
			}
			decimals := 0
			if dot := strings.IndexByte(printed, '.'); dot >= 0 {
				decimals = len(printed) - dot - 1
			}
			half := 0.5 * math.Pow(10, -float64(decimals))
			if key <= 0 || math.Abs(v-key) > half*(1+1e-9) {
				t.Errorf("%s: README prints %s, but BENCH_fig9.json records %g", c.name, printed, key)
			}
		}
	}
}

// TestReadmeNamesExist keeps README's API names in step with the code:
// every wasabi.X it mentions, and every backticked name that starts with
// With, Stream, Subscribe or Backpressure (the option and stream
// vocabulary), must be an exported identifier of package wasabi or
// internal/analyses. A deleted option or type then fails here instead of
// lingering in the prose.
func TestReadmeNamesExist(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, dir := range []string{".", "internal/analyses"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						exported[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							exported[spec.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								exported[n.Name] = true
							}
						}
					}
				}
			}
		}
	}

	names := map[string]bool{}
	for _, m := range regexp.MustCompile(`\bwasabi\.([A-Z]\w*)`).FindAllStringSubmatch(string(readme), -1) {
		names[m[1]] = true
	}
	// Inline code spans only: fenced blocks are covered by the wasabi.X rule.
	var prose []string
	fenced := false
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose = append(prose, line)
		}
	}
	lead := regexp.MustCompile(`^(?:With|Stream|Subscribe|Backpressure)\w*`)
	for _, m := range regexp.MustCompile("`([^`\n]+)`").FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
		if name := lead.FindString(m[1]); name != "" {
			names[name] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("found no API names in README.md; the patterns are broken")
	}
	var missing []string
	for name := range names {
		if !ast.IsExported(name) || !exported[name] {
			missing = append(missing, name)
		}
	}
	slices.Sort(missing)
	if len(missing) > 0 {
		t.Errorf("README.md names %d identifiers that package wasabi and internal/analyses do not export: %s",
			len(missing), strings.Join(missing, ", "))
	}
}
