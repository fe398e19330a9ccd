package wasabi_test

// Integration coverage for examples/: each example is a self-contained
// program reproducing one of the paper's use cases, and several assert their
// own expected analysis results internally (log.Fatal on mismatch). Running
// them end-to-end pins both the public API surface they exercise and the
// analysis outputs they print.

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("examples run full instrument+execute cycles; skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool not available: %v", err)
	}
	cases := []struct {
		dir  string
		want []string
	}{
		{"quickstart", []string{
			"main(10) = 45 (expect 45)",
			"observed 10 loads and 10 stores over 10 distinct addresses",
		}},
		{"branch-coverage", []string{
			"after 1 input:  0/3 branch sites saw both directions",
			"after 5 inputs: 3/3 branch sites saw both directions",
		}},
		{"taint", []string{
			"1 flows, 4 tainted bytes",
			"exactly the secret flow detected; the clean value passed silently",
		}},
		{"hotpath", []string{
			"--- hottest blocks in floyd-warshall (n=24) ---",
			"functions dynamically reachable from main",
		}},
		{"cryptominer", []string{
			"suspicious: true",
			"verdicts correct: miner flagged, gemm clean",
		}},
		{"multimodule", []string{
			"main(5) = square(5) + cube(5) = 150 (expect 150)",
			"cross-module imports resolved through the engine registry",
		}},
		{"wasi-hello", []string{
			`guest stdout: "hello from wasi\n" (exit status 0)`,
			"3 WASI syscalls counted by the analysis; stdout captured in-memory",
		}},
		{"streamtrace", []string{
			"main(4) = 135 on both surfaces",
			"callback and stream traces match (148 events)",
		}},
		{"analysis-service", []string{
			"tenant m1: main(10) = 285, 229 instructions over 2 funcs",
			"durable replay matches (285 records)",
			"runaway tenant contained: fuel exhausted",
			"tenant m1: 8 concurrent analyses each recorded and replayed 285 records",
			"analysis service: upload, contained fan-out analysis, and durable replay verified over HTTP",
			"no segment file left behind",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./examples/"+tc.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", tc.dir, err, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("output missing %q\n--- full output ---\n%s", want, out)
				}
			}
		})
	}
}

// TestWasabiDiffCLI runs the wasabi tool's -gen and -diff modes end to end:
// generate a seeded module, then check it through the differential matrix.
func TestWasabiDiffCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess go runs; skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool not available: %v", err)
	}
	module := filepath.Join(t.TempDir(), "gen.wasm")
	out, err := exec.Command("go", "run", "./cmd/wasabi", "-gen", "99", "-o", module).CombinedOutput()
	if err != nil {
		t.Fatalf("wasabi -gen: %v\n%s", err, out)
	}
	out, err = exec.Command("go", "run", "./cmd/wasabi", "-diff", module).CombinedOutput()
	if err != nil {
		t.Fatalf("wasabi -diff: %v\n%s", err, out)
	}
	for _, config := range []string{"plain", "hooked", "static", "stream", "fuel"} {
		if !strings.Contains(string(out), config+" ") && !strings.Contains(string(out), config+"\t") {
			t.Errorf("verdict for %q missing\n--- full output ---\n%s", config, out)
		}
	}
	if strings.Contains(string(out), "DIVERGED") {
		t.Errorf("unexpected divergence\n--- full output ---\n%s", out)
	}
}
