package validate

import (
	"strings"
	"testing"

	"wasabi/internal/wasm"
)

// TestLowestBadFunctionReported checks that, with two invalid bodies, the
// error names the lower-index function at every worker count.
func TestLowestBadFunctionReported(t *testing.T) {
	m := &wasm.Module{Types: []wasm.FuncType{{}}}
	for i := 0; i < 12; i++ {
		body := []wasm.Instr{wasm.End()}
		switch i {
		case 3:
			body = []wasm.Instr{wasm.I32Const(1), wasm.End()} // leaves a value
		case 8:
			body = []wasm.Instr{wasm.Op1(wasm.OpDrop), wasm.End()} // underflow
		}
		m.Funcs = append(m.Funcs, wasm.Func{Body: body})
	}
	for par := 1; par <= 8; par++ {
		for round := 0; round < 5; round++ {
			err := module(m, par)
			if err == nil || !strings.HasPrefix(err.Error(), "func 3 (") {
				t.Fatalf("%d workers: got %v, want func 3's error", par, err)
			}
		}
	}
}
