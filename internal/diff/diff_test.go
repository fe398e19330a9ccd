package diff

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"wasabi/internal/polybench"
	"wasabi/internal/spectest"
	"wasabi/internal/wasmgen"
)

// stdArgs are the entry arguments every generated module is probed with:
// zero, one, all-bits, and the sign bit — the corners that flush out
// sign/zero-extension and wraparound disagreements.
var stdArgs = []uint64{0, 1, 0xFFFFFFFF, 1 << 31}

// genInvocations builds the standard invocation list for a generated module.
func genInvocations() []Invocation {
	invs := make([]Invocation, 0, len(stdArgs))
	for _, a := range stdArgs {
		invs = append(invs, Invocation{Entry: wasmgen.Entry, Args: []uint64{a}})
	}
	return invs
}

// TestSpectestMatrix runs the whole spectest corpus — expected outputs AND
// expected traps — through the reference and every production config.
func TestSpectestMatrix(t *testing.T) {
	for _, c := range spectest.Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			var invs []Invocation
			for _, in := range sortedInputs(c) {
				invs = append(invs, Invocation{Entry: "run", Args: []uint64{uint64(uint32(in))}})
			}
			for _, in := range c.TrapsOn {
				invs = append(invs, Invocation{Entry: "run", Args: []uint64{uint64(uint32(in))}})
			}
			rep, err := Run(c.Module(), Options{Invocations: invs})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("divergence:\n%s", rep)
			}
		})
	}
}

func sortedInputs(c spectest.Case) []int32 {
	ins := make([]int32, 0, len(c.IO))
	for in := range c.IO {
		ins = append(ins, in)
	}
	for i := 0; i < len(ins); i++ {
		for j := i + 1; j < len(ins); j++ {
			if ins[j] < ins[i] {
				ins[i], ins[j] = ins[j], ins[i]
			}
		}
	}
	return ins
}

// TestPolybenchMatrix runs every Fig 9 kernel (small problem size) through
// the matrix, with env.print_f64 linked and folded into the digest — the
// paper's own faithfulness oracle for these binaries.
func TestPolybenchMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, k := range polybench.Kernels() {
		t.Run(k.Name, func(t *testing.T) {
			rep, err := Run(k.Module(4), Options{
				Invocations: []Invocation{{Entry: "kernel"}},
				PrintF64:    true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("divergence:\n%s", rep)
			}
		})
	}
}

// TestGeneratedMatrix runs the seeded generated corpus through the matrix.
// The corpus size defaults small for the ordinary test run; CI's diff-matrix
// job raises it past 1000 via WASABI_DIFF_N.
func TestGeneratedMatrix(t *testing.T) {
	n := 50
	if s := os.Getenv("WASABI_DIFF_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad WASABI_DIFF_N %q: %v", s, err)
		}
		n = v
	}
	if testing.Short() {
		n = 10
	}
	invs := genInvocations()
	for seed := 0; seed < n; seed++ {
		rep, err := Run(wasmgen.Module(uint64(seed)), Options{Invocations: invs})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.OK() {
			t.Fatalf("seed %d: divergence:\n%s", seed, rep)
		}
	}
}

// TestReportShape pins the report surface the CLI prints: per-config
// verdicts in matrix order, OK only when every config agreed.
func TestReportShape(t *testing.T) {
	rep, err := Run(spectest.Corpus()[0].Module(), Options{
		Invocations: []Invocation{{Entry: "run", Args: []uint64{1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Configs) != len(AllConfigs()) {
		t.Fatalf("got %d config verdicts, want %d", len(rep.Configs), len(AllConfigs()))
	}
	for i, v := range rep.Configs {
		if v.Name != AllConfigs()[i] {
			t.Fatalf("config %d = %q, want %q", i, v.Name, AllConfigs()[i])
		}
	}
	if !rep.OK() {
		t.Fatalf("unexpected divergence:\n%s", rep)
	}
}

// TestConfigSubset pins Options.Configs filtering (the CLI's -diff mode and
// targeted debugging both rely on it).
func TestConfigSubset(t *testing.T) {
	rep, err := Run(spectest.Corpus()[0].Module(), Options{
		Invocations: []Invocation{{Entry: "run", Args: []uint64{0}}},
		Configs:     []string{"plain"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Configs) != 1 || rep.Configs[0].Name != "plain" {
		t.Fatalf("got %+v, want single plain verdict", rep.Configs)
	}
	if _, err := Run(spectest.Corpus()[0].Module(), Options{
		Invocations: []Invocation{{Entry: "run", Args: []uint64{0}}},
		Configs:     []string{"warp-speed"},
	}); err == nil {
		t.Fatal("want error for unknown config name")
	}
}

// TestRunRejectsArgumentCount pins that an invocation passes exactly one
// argument per parameter of its entry: Run refuses any other count before
// running a side, since no interpreter would run the call.
func TestRunRejectsArgumentCount(t *testing.T) {
	for _, args := range [][]uint64{nil, {1, 2}} {
		_, err := Run(spectest.Corpus()[0].Module(), Options{
			Invocations: []Invocation{{Entry: "run", Args: []uint64{0}}, {Entry: "run", Args: args}},
		})
		if want := fmt.Sprintf(`invocation 1: "run" called with %d arguments, want 1`, len(args)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run%v: err = %v, want it to say %q", args, err, want)
		}
	}
}

// FuzzDifferential is the continuous-fuzzing face of the harness: the fuzzer
// explores (seed, argument) space, and any divergence between the reference
// and the matrix is a crash.
func FuzzDifferential(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, uint32(0))
		f.Add(seed, uint32(1<<31))
	}
	f.Fuzz(func(t *testing.T, seed uint64, arg uint32) {
		rep, err := Run(wasmgen.Module(seed), Options{
			Invocations: []Invocation{{Entry: wasmgen.Entry, Args: []uint64{uint64(arg)}}},
		})
		if err != nil {
			t.Fatalf("seed %d arg %d: %v", seed, arg, err)
		}
		if !rep.OK() {
			t.Fatalf("seed %d arg %d: divergence:\n%s", seed, arg, rep)
		}
	})
}
