package experiments

import (
	"strconv"
	"strings"
	"testing"

	"wasabi/internal/analyses"
)

// smallConfig keeps the experiment smoke tests fast.
func smallConfig() Config {
	return Config{PolyN: 8, PSPDFBytes: 30_000, UnrealBytes: 60_000, Reps: 1, RunN: 16}
}

func TestTable4(t *testing.T) {
	var sb strings.Builder
	if err := Table4(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"instruction-mix", "taint", "cryptominer", "binary", "begin"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 output missing %q", want)
		}
	}
	// The taint row counts taint.go and the shadow stack it embeds.
	want := 0
	for _, file := range []string{"taint.go", "shadow.go"} {
		n, err := analyses.LinesOfCode(file)
		if err != nil {
			t.Fatal(err)
		}
		want += n
	}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "taint" {
			if got := f[len(f)-1]; got != strconv.Itoa(want) {
				t.Errorf("taint row counts %s lines, want %d (taint.go + shadow.go):\n%s", got, want, line)
			}
			return
		}
	}
	t.Error("Table 4 has no taint row")
}

func TestRQ2(t *testing.T) {
	var sb strings.Builder
	if err := RQ2(&sb, smallConfig()); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "0 failed") {
		t.Errorf("RQ2 output: %s", sb.String())
	}
}

func TestTable5(t *testing.T) {
	var sb strings.Builder
	if err := Table5(&sb, smallConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "PolyBench (avg.)") {
		t.Errorf("Table 5 output: %s", sb.String())
	}
}

func TestFig8(t *testing.T) {
	var sb strings.Builder
	if err := Fig8(&sb, smallConfig()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// 21 hook rows plus "all".
	if got := strings.Count(out, "%"); got < 22*3 {
		t.Errorf("Fig 8 output too small (%d data points):\n%s", got, out)
	}
	if !strings.Contains(out, "all") {
		t.Error("Fig 8 missing the all row")
	}
}

func TestMono(t *testing.T) {
	var sb strings.Builder
	if err := Mono(&sb, smallConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "PolyBench range") {
		t.Errorf("Mono output: %s", sb.String())
	}
}

func TestFig9(t *testing.T) {
	var sb strings.Builder
	if err := Fig9(&sb, smallConfig(), []string{"gemm"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "all") || !strings.Contains(out, "binary") {
		t.Errorf("Fig 9 output: %s", out)
	}
}

func TestWorkloadConstruction(t *testing.T) {
	wls := PolyBenchWorkloads(8)
	if len(wls) != 30 {
		t.Errorf("PolyBench workloads: %d", len(wls))
	}
	for _, wl := range wls {
		if len(wl.Bytes) == 0 || wl.Mod == nil || wl.Name == "" {
			t.Errorf("bad workload %+v", wl.Name)
		}
	}
	app := AppWorkload("x", 50_000, 1)
	if len(app.Bytes) < 25_000 {
		t.Errorf("app workload too small: %d", len(app.Bytes))
	}
}

func TestStats(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 || s != 2 {
		t.Errorf("meanStd = %v, %v", m, s)
	}
	if g := geomean([]float64{1, 4}); g != 2 {
		t.Errorf("geomean = %v", g)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Error("empty meanStd")
	}
}
