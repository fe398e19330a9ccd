package spectest

import (
	"sort"
	"testing"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/interp"
	"wasabi/internal/validate"
)

// instrumented instruments the case's module for hooks on a fresh engine
// and binds a session for the empty analysis.
func instrumented(c Case, hooks analysis.HookSet) (*wasabi.Session, error) {
	engine, err := wasabi.NewEngine()
	if err != nil {
		return nil, err
	}
	compiled, err := engine.InstrumentHooks(c.Module(), hooks)
	if err != nil {
		return nil, err
	}
	return compiled.NewSession(&analyses.Empty{})
}

// sortedInputs returns the case's inputs in ascending order so stateful
// modules (globals) behave deterministically.
func sortedInputs(c Case) []int32 {
	var ins []int32
	for x := range c.IO {
		ins = append(ins, x)
	}
	sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
	return ins
}

// TestCorpusOriginal checks the corpus against the interpreter directly.
func TestCorpusOriginal(t *testing.T) {
	for _, c := range Corpus() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			m := c.Module()
			if err := validate.Module(m); err != nil {
				t.Fatalf("validate: %v", err)
			}
			inst, err := interp.Instantiate(m, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range sortedInputs(c) {
				res, err := inst.Invoke("run", interp.I32(in))
				if err != nil {
					t.Errorf("run(%d): %v", in, err)
					continue
				}
				if got := interp.AsI32(res[0]); got != c.IO[in] {
					t.Errorf("run(%d) = %d, want %d", in, got, c.IO[in])
				}
			}
			for _, in := range c.TrapsOn {
				if _, err := inst.Invoke("run", interp.I32(in)); err == nil {
					t.Errorf("run(%d) should trap", in)
				}
			}
		})
	}
}

// TestCorpusInstrumented re-runs the whole corpus fully instrumented with
// the empty analysis: identical results, identical traps (RQ2).
func TestCorpusInstrumented(t *testing.T) {
	for _, c := range Corpus() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			sess, err := instrumented(c, analysis.AllHooks)
			if err != nil {
				t.Fatal(err)
			}
			if err := validate.Module(sess.Module()); err != nil {
				t.Fatalf("instrumented validation: %v", err)
			}
			inst, err := sess.Instantiate("", nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range sortedInputs(c) {
				res, err := inst.Invoke("run", interp.I32(in))
				if err != nil {
					t.Errorf("run(%d): %v", in, err)
					continue
				}
				if got := interp.AsI32(res[0]); got != c.IO[in] {
					t.Errorf("run(%d) = %d, want %d", in, got, c.IO[in])
				}
			}
			for _, in := range c.TrapsOn {
				if _, err := inst.Invoke("run", interp.I32(in)); err == nil {
					t.Errorf("run(%d) should trap when instrumented", in)
				}
			}
		})
	}
}

// TestCorpusPerHookInstrumented runs every case under every single-hook
// instrumentation (instrumentation independence, paper §2.4.2). This is the
// widest faithfulness sweep in the repository: cases × hooks × inputs.
func TestCorpusPerHookInstrumented(t *testing.T) {
	for _, c := range Corpus() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			for kind := analysis.HookKind(0); int(kind) < analysis.NumKinds; kind++ {
				if kind == analysis.KindBlockProbe {
					// Probes are placed by a static plan, not by Set(kind)
					// alone; the block-probe faithfulness sweep lives in the
					// top-level static elision tests.
					continue
				}
				sess, err := instrumented(c, analysis.Set(kind))
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				inst, err := sess.Instantiate("", nil)
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				for _, in := range sortedInputs(c) {
					res, err := inst.Invoke("run", interp.I32(in))
					if err != nil {
						t.Errorf("%s: run(%d): %v", kind, in, err)
						continue
					}
					if got := interp.AsI32(res[0]); got != c.IO[in] {
						t.Errorf("%s: run(%d) = %d, want %d", kind, in, got, c.IO[in])
					}
				}
			}
		})
	}
}
