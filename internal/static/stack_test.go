package static_test

import (
	"fmt"
	"sort"
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/polybench"
	"wasabi/internal/spectest"
	"wasabi/internal/static"
	"wasabi/internal/synthapp"
	"wasabi/internal/wasm"
)

// checkStackEquality asserts that the static stack high-water mark equals
// the interpreter compile pass's — the number exec sizes the operand stack
// to, exactly, with no slack — for every defined function of m.
func checkStackEquality(t *testing.T, m *wasm.Module) {
	t.Helper()
	ma, err := static.Analyze(m)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	want, err := interp.StackHighWater(m)
	if err != nil {
		t.Fatalf("StackHighWater: %v", err)
	}
	for di := range m.Funcs {
		if got := ma.Funcs[di].MaxStack; got != want[di] {
			t.Errorf("func %d: static MaxStack %d != interp maxStack %d",
				m.NumImportedFuncs()+di, got, want[di])
		}
	}
}

// TestStackHighWaterMatchesInterp pins the tentpole's exact-sizing claim: the
// static pass and the interpreter compiler derive the same operand-stack
// high-water for every function of the spectest corpus, the corpus modules
// fully instrumented (hook-call-dense bodies), the synthetic application, and
// the PolyBench kernels.
func TestStackHighWaterMatchesInterp(t *testing.T) {
	for _, c := range spectest.Corpus() {
		t.Run("spectest/"+c.Name, func(t *testing.T) {
			m := c.Module()
			checkStackEquality(t, m)

			inst, _, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks})
			if err != nil {
				t.Fatalf("Instrument: %v", err)
			}
			checkStackEquality(t, inst)
		})
	}
	t.Run("synthapp", func(t *testing.T) {
		m := synthapp.Generate(synthapp.Config{TargetBytes: 1 << 16, Seed: 7})
		checkStackEquality(t, m)
	})
	for _, k := range polybench.Kernels() {
		t.Run("polybench/"+k.Name, func(t *testing.T) {
			checkStackEquality(t, k.Module(16))
		})
	}
}

// TestExactSizingObserved runs every spectest program (original and
// instrumented) and checks that execution never needs more stack than the
// static number: exec allocates exactly maxStack slots, so an undersized
// bound would panic out of the interpreter as a fault, failing the run.
func TestExactSizingObserved(t *testing.T) {
	for _, c := range spectest.Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			m := c.Module()
			inst, err := interp.Instantiate(m, nil)
			if err != nil {
				t.Fatalf("instantiate: %v", err)
			}
			var ins []int32
			for x := range c.IO {
				ins = append(ins, x)
			}
			sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
			for _, in := range ins {
				want := c.IO[in]
				got, err := inst.Invoke("run", interp.I32(in))
				if err != nil {
					t.Fatalf("run(%d): %v", in, err)
				}
				if interp.AsI32(got[0]) != want {
					t.Fatalf("run(%d) = %d, want %d", in, interp.AsI32(got[0]), want)
				}
			}
		})
	}
}

var sinkProfile string

// TestProfileSmoke keeps the report surface honest: profiles render for every
// corpus module without panicking and count reachable blocks consistently.
func TestProfileSmoke(t *testing.T) {
	for _, c := range spectest.Corpus() {
		m := c.Module()
		ma, err := static.Analyze(m)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		p := ma.Profile()
		if p.NumFuncs != m.NumFuncs() {
			t.Fatalf("%s: profile counts %d funcs, module has %d", c.Name, p.NumFuncs, m.NumFuncs())
		}
		for _, fp := range p.Funcs {
			if fp.Reachable > fp.Blocks {
				t.Fatalf("%s: func %d has %d reachable of %d blocks", c.Name, fp.Idx, fp.Reachable, fp.Blocks)
			}
		}
		sinkProfile = fmt.Sprint(p)
	}
}
