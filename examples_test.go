package wasabi_test

// Integration coverage for examples/: each example is a self-contained
// program reproducing one of the paper's use cases, and several assert their
// own expected analysis results internally (log.Fatal on mismatch). Running
// them end-to-end pins both the public API surface they exercise and the
// analysis outputs they print.

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"wasabi/internal/sink"
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
			"segment replay matches (285 records)",
			"runaway tenant contained: fuel exhausted",
			"tenant m1: 8 concurrent analyses each recorded and replayed 285 records",
			"oversized upload refused (HTTP 413, cap 1048576 bytes); nothing registered",
			"analysis service: upload, contained fan-out analysis, and segment replay verified over HTTP",
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
	for _, config := range []string{"plain", "hooked", "static", "stream", "fuel", "relinked"} {
		if !strings.Contains(string(out), config+" ") && !strings.Contains(string(out), config+"\t") {
			t.Errorf("verdict for %q missing\n--- full output ---\n%s", config, out)
		}
	}
	if strings.Contains(string(out), "DIVERGED") {
		t.Errorf("unexpected divergence\n--- full output ---\n%s", out)
	}
}

// TestWasabiRunRecordCLI runs wasabi-run's record path end to end: a
// synthapp run sized by -arg records a segment that replays every event the
// CLI reports, and -n, which sizes PolyBench kernels only, is refused for
// synthapp instead of being ignored.
func TestWasabiRunRecordCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess go build; skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool not available: %v", err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "wasabi-run")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/wasabi-run").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/wasabi-run: %v\n%s", err, out)
	}
	segment := filepath.Join(dir, "synthapp.evlog")
	out, err := exec.Command(bin, "-workload", "synthapp", "-arg", "5", "-record", segment).CombinedOutput()
	if err != nil {
		t.Fatalf("wasabi-run -record: %v\n%s", err, out)
	}
	r, err := sink.Open(segment)
	if err != nil {
		t.Fatalf("open the recorded segment: %v", err)
	}
	defer r.Close()
	if want := fmt.Sprintf("recorded %d events to %s", r.Count(), segment); r.Count() == 0 || !strings.Contains(string(out), want) {
		t.Errorf("output does not report the %d replayable records\n--- full output ---\n%s", r.Count(), out)
	}
	out, err = exec.Command(bin, "-workload", "synthapp", "-n", "8").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-arg") {
		t.Errorf("wasabi-run -workload synthapp -n 8: err %v, want a failure naming -arg\n--- full output ---\n%s", err, out)
	}
}
