package static

import (
	"strings"
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/wasm"
)

// badModule returns a module of twelve trivial functions, with func 3's body
// replaced by bad3 and func 8's type index out of range.
func badModule(bad3 ...wasm.Instr) *wasm.Module {
	m := &wasm.Module{Types: []wasm.FuncType{{}}}
	for i := 0; i < 12; i++ {
		f := wasm.Func{Body: []wasm.Instr{wasm.End()}}
		switch i {
		case 3:
			f.Body = bad3
		case 8:
			f.TypeIdx = 7 // no such type
		}
		m.Funcs = append(m.Funcs, f)
	}
	return m
}

// TestLowestBadFunctionReported checks that, with two malformed bodies, the
// error names the lower-index function at every worker count, on the
// profile path and on the plan path. Both check structure only: an else
// without an if fails func 3, while a stack underflow there is left to
// validation, so both paths reach func 8's bad type index.
func TestLowestBadFunctionReported(t *testing.T) {
	underflow := badModule(wasm.Op1(wasm.OpDrop), wasm.End())
	structural := badModule(wasm.Instr{Op: wasm.OpElse}, wasm.End())
	runs := []struct {
		name string
		run  func(par int) error
	}{
		{"profile/structural", func(par int) error { _, err := profile(structural, par); return err }},
		{"planFor/structural", func(par int) error {
			_, err := planFor(structural, analysis.Set(analysis.KindBlockProbe), par)
			return err
		}},
		{"planFor/structural/all-hooks", func(par int) error {
			_, err := planFor(structural, analysis.AllHooks, par)
			return err
		}},
	}
	for _, r := range runs {
		for par := 1; par <= 8; par++ {
			for round := 0; round < 5; round++ {
				if err := r.run(par); err == nil || !strings.HasPrefix(err.Error(), "static: func 3:") {
					t.Fatalf("%s, %d workers: got %v, want func 3's error", r.name, par, err)
				}
			}
		}
	}
	if _, err := profile(underflow, 1); err == nil || !strings.HasPrefix(err.Error(), "static: func 8:") {
		t.Fatalf("profile on the underflow module: got %v, want func 8's error", err)
	}
	if _, err := planFor(underflow, analysis.AllHooks, 1); err == nil || !strings.HasPrefix(err.Error(), "static: func 8:") {
		t.Fatalf("planFor on the underflow module: got %v, want func 8's error", err)
	}
}
