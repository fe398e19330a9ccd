package core_test

// Tests for the restricted index-remap pass: the instrumenter records the
// body index of every call it emits and the remap pass visits exactly those,
// instead of rescanning every body. These tests pin down that no call site
// escapes the recording, across hooked calls, untouched passthrough calls,
// unreachable calls, and every other index-space consumer (elems, exports,
// start, names).

import (
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/builder"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/validate"
	"wasabi/internal/wasm"
)

// remapModule builds a module exercising every call shape the remap pass
// must cover: calls to imports, calls between defined functions, an
// indirect call through a table, a call in statically dead code, and a
// start function that calls.
func remapModule() *wasm.Module {
	b := builder.New()
	hostIdx := b.ImportFunc("env", "host", wasm.FuncType{Params: []wasm.ValType{wasm.I32}})
	b.Table(4)

	double := b.Func("double", builder.V(wasm.I32), builder.V(wasm.I32))
	double.Get(0).I32(2).Op(wasm.OpI32Mul)
	double.Done()

	addone := b.Func("addone", builder.V(wasm.I32), builder.V(wasm.I32))
	addone.Get(0).I32(1).Op(wasm.OpI32Add)
	addone.Done()

	initf := b.Func("init", nil, nil)
	initf.I32(7).Call(hostIdx)
	initf.Done()

	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0).Call(double.Index) // defined → defined
	f.Get(0).Call(hostIdx)      // defined → import
	f.Get(0)                    // argument for the indirect call
	f.Get(0).I32(1).Op(wasm.OpI32And)
	f.CallIndirect(builder.V(wasm.I32), builder.V(wasm.I32))
	f.Op(wasm.OpI32Add)
	f.Return()
	f.Get(0).Call(double.Index) // statically dead call: still remapped
	f.Done()

	b.Elem(0, double.Index, addone.Index)
	b.Start(initf.Index)
	return b.Build()
}

func TestRestrictedRemapCoversEveryCallSite(t *testing.T) {
	m := remapModule()
	sets := []analysis.HookSet{
		0,                              // nothing instrumented: plain passthrough bodies
		analysis.Set(analysis.KindNop), // instrumented, but no call hooks
		analysis.Set(analysis.KindCall),
		analysis.AllHooks,
	}
	for _, set := range sets {
		out, md, err := core.Instrument(m, core.Options{Hooks: set})
		if err != nil {
			t.Fatalf("set %v: %v", set, err)
		}
		// Every call index must be in range and target the declared-type
		// function the validator expects; a missed remap leaves a stale
		// index that validation or the range check below catches.
		if err := validate.Module(out); err != nil {
			t.Fatalf("set %v: instrumented module invalid: %v", set, err)
		}
		numFuncs := out.NumFuncs()
		for fi := range out.Funcs {
			for ii, in := range out.Funcs[fi].Body {
				if in.Op == wasm.OpCall && int(in.Idx) >= numFuncs {
					t.Fatalf("set %v: func %d instr %d: unmapped call index %d (have %d funcs)", set, fi, ii, in.Idx, numFuncs)
				}
			}
		}
		// Placeholder indices live at or above the original function count;
		// after the remap none may remain below the hook-import window only
		// reachable through it. Cross-check behaviorally: the module must run
		// and compute the original result.
		var hostCalls int
		imports := interp.Imports{"env": {"host": &interp.HostFunc{
			Type: wasm.FuncType{Params: []wasm.ValType{wasm.I32}},
			Fn: func(_ *interp.Instance, _ []interp.Value) ([]interp.Value, error) {
				hostCalls++
				return nil, nil
			},
		}}}
		for name, fields := range coreImports(md) {
			imports[name] = fields
		}
		inst, err := interp.Instantiate(out, imports)
		if err != nil {
			t.Fatalf("set %v: %v", set, err)
		}
		// f(6) = double(6) + addone-or-double(6&1=0 → table[0]=double → 12) = 24
		res, err := inst.Invoke("f", interp.I32(6))
		if err != nil {
			t.Fatalf("set %v: invoke: %v", set, err)
		}
		if got := interp.AsI32(res[0]); got != 24 {
			t.Errorf("set %v: f(6) = %d, want 24", set, got)
		}
		// f(3) = 6 + addone(3)=4 → 10
		res, err = inst.Invoke("f", interp.I32(3))
		if err != nil {
			t.Fatalf("set %v: invoke: %v", set, err)
		}
		if got := interp.AsI32(res[0]); got != 10 {
			t.Errorf("set %v: f(3) = %d, want 10", set, got)
		}
		if hostCalls < 3 { // start + two invocations of f
			t.Errorf("set %v: host called %d times, want >= 3 (start remap or call remap lost)", set, hostCalls)
		}
	}
}

// coreImports builds no-op hook imports directly from the metadata, without
// pulling the runtime package into core's tests (import cycle).
func coreImports(md *core.Metadata) interp.Imports {
	fields := make(map[string]any, len(md.Specs))
	for i := range md.Specs {
		spec := &md.Specs[i]
		fields[spec.Name] = &interp.HostFunc{
			Type: spec.WasmType(),
			Fast: func(*interp.Instance, []interp.Value) {},
		}
	}
	return interp.Imports{core.HookModule: fields}
}

// TestRemapDropsNamesOfMissingFunctions instruments a module whose name
// section names a function index it does not have, as an arbitrary input
// binary may: the name is dropped instead of being read as a hook.
func TestRemapDropsNamesOfMissingFunctions(t *testing.T) {
	m := remapModule()
	missing := uint32(m.NumFuncs() + 40)
	m.FuncNames[missing] = "ghost"
	out, _, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks})
	if err != nil {
		t.Fatal(err)
	}
	for idx, name := range out.FuncNames {
		if name == "ghost" {
			t.Errorf("name of missing function %d kept at index %d", missing, idx)
		}
	}
	if len(out.FuncNames) != len(m.FuncNames)-1 {
		t.Errorf("instrumented module keeps %d names, want %d", len(out.FuncNames), len(m.FuncNames)-1)
	}
}
