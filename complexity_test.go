package wasabi_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/binary"
	"wasabi/internal/interp"
	"wasabi/internal/validate"
	"wasabi/internal/wasm"
)

// importHeavyModule is the shape of a hostile upload: n imported functions
// and 4n calls to them, each passing a global, spread over exported
// functions of 256 calls. Every call and global.get makes a front end that
// scans the import list per instruction pay O(n), so such a stage costs
// O(n²) in total.
func importHeavyModule(n int) *wasm.Module {
	m := &wasm.Module{
		Types:   []wasm.FuncType{{Params: []wasm.ValType{wasm.I32}}, {}},
		Globals: []wasm.Global{{Type: wasm.GlobalType{Type: wasm.I32, Mutable: true}, Init: []wasm.Instr{wasm.I32Const(7), wasm.End()}}},
	}
	for i := 0; i < n; i++ {
		m.Imports = append(m.Imports, wasm.Import{Module: "env", Name: fmt.Sprintf("f%d", i), Kind: wasm.ExternFunc})
	}
	const callsPerFunc = 256
	for call := 0; call < 4*n; {
		body := make([]wasm.Instr, 0, 2*callsPerFunc+1)
		for k := 0; k < callsPerFunc && call < 4*n; k, call = k+1, call+1 {
			body = append(body, wasm.GlobalGet(0), wasm.Call(uint32(call%n)))
		}
		body = append(body, wasm.End())
		idx := uint32(n + len(m.Funcs))
		m.Funcs = append(m.Funcs, wasm.Func{TypeIdx: 1, Body: body})
		m.Exports = append(m.Exports, wasm.Export{Name: fmt.Sprintf("run%d", idx), Kind: wasm.ExternFunc, Idx: idx})
	}
	return m
}

// importHeavyImports provides the n host functions importHeavyModule
// imports.
func importHeavyImports(n int) interp.Imports {
	fields := make(map[string]any, n)
	for i := 0; i < n; i++ {
		fields[fmt.Sprintf("f%d", i)] = &interp.HostFunc{
			Type: wasm.FuncType{Params: []wasm.ValType{wasm.I32}},
			Fn:   func(*interp.Instance, []interp.Value) ([]interp.Value, error) { return nil, nil },
		}
	}
	return interp.Imports{"env": fields}
}

// TestFrontEndLinearInImports pins that every stage from upload to instance
// is linear in the number of imports: doubling a hostile module's imports
// and calls may at most about double each stage's cost (2.5x allows for
// noise), where a per-instruction scan of the import list makes it 4x.
//
// The stages are memory-bound, and a working set that outgrows a cache
// level costs more per byte, so the sizes are kept small and each timing
// runs a stage on 8 freshly built inputs back to back, after an untimed
// warm-up run, on one P (the per-function fan-outs speed up unevenly with
// size). A round times both sizes back to back, so a slow spell of the
// machine hits both, and the doubling counts best of 3 rounds.
func TestFrontEndLinearInImports(t *testing.T) {
	if testing.Short() {
		t.Skip("times hostile-module stages at two sizes; skipped in -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, reps = 2000, 8
	instrument := func(m *wasm.Module, opts ...wasabi.EngineOption) *wasabi.CompiledAnalysis {
		compiled, err := mustEngine(t, opts...).Instrument(m, wasabi.AllCaps)
		if err != nil {
			t.Fatal(err)
		}
		return compiled
	}
	stages := []struct {
		name string
		// prepare builds the inputs for n imports untimed and returns the
		// timed step.
		prepare func(n int) func()
	}{
		{"decode", func(n int) func() {
			data, err := binary.Encode(importHeavyModule(n))
			if err != nil {
				t.Fatal(err)
			}
			return func() {
				if _, err := binary.Decode(data); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"validate", func(n int) func() {
			m := importHeavyModule(n)
			return func() {
				if err := validate.Module(m); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"Engine.Instrument", func(n int) func() {
			m := importHeavyModule(n)
			return func() { instrument(m) }
		}},
		{"Engine.Instrument/static", func(n int) func() {
			m := importHeavyModule(n)
			return func() { instrument(m, wasabi.WithStaticAnalysis()) }
		}},
		{"Session.Instantiate", func(n int) func() {
			// A fresh CompiledAnalysis each time, so the step compiles
			// rather than linking code an earlier step compiled.
			sess, err := instrument(importHeavyModule(n)).NewSession(&analyses.Empty{})
			if err != nil {
				t.Fatal(err)
			}
			imports := importHeavyImports(n)
			return func() {
				if _, err := sess.Instantiate("", imports); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, st := range stages {
		var best [2]time.Duration
		ratio := math.Inf(1)
		for round := 0; round < 3; round++ {
			var took [2]time.Duration
			for i := range took {
				st.prepare(n << i)()
				steps := make([]func(), reps)
				for k := range steps {
					steps[k] = st.prepare(n << i)
				}
				runtime.GC()
				start := time.Now()
				for _, step := range steps {
					step()
				}
				took[i] = time.Since(start)
			}
			if r := float64(took[1]) / float64(took[0]); r < ratio {
				ratio, best = r, took
			}
		}
		t.Logf("%-26s %d x n=%d: %8v  n=%d: %8v  (%.2fx)", st.name, reps, n, best[0], 2*n, best[1], ratio)
		if ratio > 2.5 {
			t.Errorf("%s: doubling the imports and calls cost %.2fx (%v -> %v), want at most 2.5x", st.name, ratio, best[0], best[1])
		}
	}
}
