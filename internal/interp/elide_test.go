package interp

import (
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/spectest"
	"wasabi/internal/wasm"
)

// TestElidedHooksKeepAsWrittenMarks: under an analysis that observes
// nothing, every hook call of an AllCaps instrumentation is elided together
// with the lowering of its arguments — the lo/hi split of an i64 included —
// so each defined function's operand-stack mark is its mark as written.
func TestElidedHooksKeepAsWrittenMarks(t *testing.T) {
	for _, c := range spectest.Corpus() {
		m := c.Module()
		want, err := StackHighWater(m)
		if err != nil {
			t.Fatal(err)
		}
		instrumented, _, err := core.Instrument(m, core.Options{Hooks: analysis.AllCaps.HookSet()})
		if err != nil {
			t.Fatal(err)
		}
		hooks := map[string]any{}
		for _, imp := range instrumented.Imports {
			if imp.Kind == wasm.ExternFunc && imp.Module == core.HookModule {
				hooks[imp.Name] = &HostFunc{Type: instrumented.Types[imp.TypeIdx], Fast: func(*Instance, []Value) {}, NoOp: true}
			}
		}
		inst, err := Instantiate(instrumented, Imports{core.HookModule: hooks})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		defined := inst.funcs[len(inst.funcs)-len(m.Funcs):]
		for di, mark := range want {
			if got := defined[di].code.maxStack; got != mark {
				t.Errorf("%s: func %d: mark %d under elided hooks, %d as written", c.Name, di, got, mark)
			}
		}
	}
}
