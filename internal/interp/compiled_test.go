package interp

// In-package tests for CompiledModule: instances whose imports have the same
// host shape link one copy of the threaded code, instances of different
// shapes never share it, and compile errors are not cached.

import (
	"errors"
	"sync"
	"testing"

	"wasabi/internal/builder"
	"wasabi/internal/wasm"
)

// hookedModule exports "f"(x) = x + 1, calling the result-less import
// env.hook(x) on the way.
func hookedModule() *wasm.Module {
	b := builder.New()
	hook := b.ImportFunc("env", "hook", wasm.FuncType{Params: []wasm.ValType{wasm.I32}})
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0).Call(hook)
	f.Get(0).I32(1).Op(wasm.OpI32Add)
	f.Done()
	return b.Build()
}

// hookImports provides env.hook in the given shape, counting its calls.
func hookImports(shape hostCall, calls *int) Imports {
	hf := &HostFunc{Type: wasm.FuncType{Params: []wasm.ValType{wasm.I32}}}
	count := func(*Instance, []Value) { *calls++ }
	switch shape {
	case hostPlain:
		hf.Fn = func(inst *Instance, args []Value) ([]Value, error) { count(inst, args); return nil, nil }
	case hostNoOp:
		hf.Fast, hf.NoOp = func(inst *Instance, args []Value) error { count(inst, args); return nil }, true
	case hostFast:
		hf.Fast = func(inst *Instance, args []Value) error { count(inst, args); return nil }
	case hostEmit:
		hf.Emit = count
	}
	return Imports{"env": {"hook": hf}}
}

// definedCode returns the compiled code an instance links for its defined
// functions.
func definedCode(inst *Instance) []*compiledFunc {
	var out []*compiledFunc
	for _, fi := range inst.funcs {
		if fi.code != nil {
			out = append(out, fi.code)
		}
	}
	return out
}

func TestCompiledModuleSharesCodePerShape(t *testing.T) {
	cm := NewCompiledModule(hookedModule(), Config{})
	shapes := []hostCall{hostPlain, hostNoOp, hostFast, hostEmit}
	wantCalls := map[hostCall]int{hostPlain: 1, hostNoOp: 0, hostFast: 1, hostEmit: 1}
	first := map[hostCall]*compiledFunc{}
	// Two passes: the first compiles each shape, the second links it.
	for pass := 0; pass < 2; pass++ {
		for _, shape := range shapes {
			var calls int
			inst, err := cm.Instantiate(nil, "", hookImports(shape, &calls))
			if err != nil {
				t.Fatalf("pass %d shape %d: %v", pass, shape, err)
			}
			res, err := inst.Invoke("f", I32(41))
			if err != nil || len(res) != 1 || AsI32(res[0]) != 42 {
				t.Fatalf("pass %d shape %d: f(41) = %v, %v; want 42", pass, shape, res, err)
			}
			if calls != wantCalls[shape] {
				t.Errorf("pass %d shape %d: hook called %d times, want %d", pass, shape, calls, wantCalls[shape])
			}
			code := definedCode(inst)
			if len(code) != 1 {
				t.Fatalf("instance links %d defined functions, want 1", len(code))
			}
			if pass == 0 {
				first[shape] = code[0]
			} else if code[0] != first[shape] {
				t.Errorf("shape %d: second instance compiled its own code instead of linking the first's", shape)
			}
		}
	}
	for i, a := range shapes {
		for _, b := range shapes[i+1:] {
			if first[a] == first[b] {
				t.Errorf("shapes %d and %d share compiled code", a, b)
			}
		}
	}
	if len(cm.shapes) != len(shapes) {
		t.Errorf("cached %d shapes, want %d", len(cm.shapes), len(shapes))
	}
}

// TestHostCallOfHonoursOnlyResultless: a host function with results is a
// plain call whatever its flags, so it never adds a shape of its own.
func TestHostCallOfHonoursOnlyResultless(t *testing.T) {
	withResult := wasm.FuncType{Results: []wasm.ValType{wasm.I32}}
	for _, hf := range []*HostFunc{
		{Type: withResult, NoOp: true},
		{Type: withResult, Fast: func(*Instance, []Value) error { return nil }},
		{Type: withResult, Emit: func(*Instance, []Value) {}},
	} {
		if got := hostCallOf(hf); got != hostPlain {
			t.Errorf("hostCallOf(%+v) = %d, want plain", hf, got)
		}
	}
	noop := &HostFunc{NoOp: true, Fast: func(*Instance, []Value) error { return nil }, Emit: func(*Instance, []Value) {}}
	if got := hostCallOf(noop); got != hostNoOp {
		t.Errorf("NoOp with Fast and Emit: hostCallOf = %d, want NoOp", got)
	}
}

func TestCompiledModuleConcurrentInstantiate(t *testing.T) {
	cm := NewCompiledModule(hookedModule(), Config{Guarded: true})
	const n = 8
	code := make([]*compiledFunc, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var calls int
			inst, err := cm.Instantiate(nil, "", hookImports(hostFast, &calls))
			if err != nil {
				errs[g] = err
				return
			}
			if _, errs[g] = inst.Invoke("f", I32(1)); errs[g] == nil {
				code[g] = definedCode(inst)[0]
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < n; g++ {
		if errs[g] != nil {
			t.Fatalf("instance %d: %v", g, errs[g])
		}
		if code[g] != code[0] {
			t.Errorf("instance %d compiled its own code; every instance of one shape must link one compile", g)
		}
	}
}

// TestCompileErrorNotCached: a shape whose compile fails is not remembered,
// so every Instantiate of it fails the same way instead of linking a stale
// result.
func TestCompileErrorNotCached(t *testing.T) {
	b := builder.New()
	f := b.Func("deep", nil, nil)
	for i := int32(0); i < 40; i++ {
		f.I32(i)
	}
	for i := 0; i < 40; i++ {
		f.Drop()
	}
	f.Done()
	cm := NewCompiledModule(b.Build(), Config{MaxFuncStack: 16})
	for i := 0; i < 3; i++ {
		if _, err := cm.Instantiate(nil, "", nil); !errors.Is(err, ErrLimit) {
			t.Fatalf("Instantiate %d: err = %v, want ErrLimit", i, err)
		}
		if len(cm.shapes) != 0 {
			t.Fatalf("Instantiate %d cached a failed compile", i)
		}
	}
}
