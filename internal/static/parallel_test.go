package static

import (
	"strings"
	"testing"

	"wasabi/internal/wasm"
)

// TestLowestBadFunctionReported checks that, with two malformed bodies, the
// error names the lower-index function at every worker count.
func TestLowestBadFunctionReported(t *testing.T) {
	m := &wasm.Module{Types: []wasm.FuncType{{}}}
	for i := 0; i < 12; i++ {
		f := wasm.Func{Body: []wasm.Instr{wasm.End()}}
		switch i {
		case 3:
			f.Body = []wasm.Instr{wasm.Op1(wasm.OpDrop), wasm.End()} // underflow
		case 8:
			f.TypeIdx = 7 // no such type
		}
		m.Funcs = append(m.Funcs, f)
	}
	for par := 1; par <= 8; par++ {
		for round := 0; round < 5; round++ {
			_, err := analyze(m, par)
			if err == nil || !strings.HasPrefix(err.Error(), "static: func 3:") {
				t.Fatalf("%d workers: got %v, want func 3's error", par, err)
			}
		}
	}
}
