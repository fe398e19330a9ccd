package refinterp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/spectest"
	"wasabi/internal/wasm"
)

// TestSpectestCorpus checks the reference interpreter against the corpus'
// expected IO and trap tables. This is the oracle's own conformance gate:
// it must agree with the hand-computed expectations before it can be
// trusted to arbitrate divergences in the production interpreter.
func TestSpectestCorpus(t *testing.T) {
	for _, c := range spectest.Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			inst, err := Instantiate(c.Module(), nil)
			if err != nil {
				t.Fatalf("instantiate: %v", err)
			}
			// Globals persist across invocations; apply inputs in a fixed
			// ascending order, matching the production parity tests.
			inputs := make([]int32, 0, len(c.IO))
			for in := range c.IO {
				inputs = append(inputs, in)
			}
			for i := 0; i < len(inputs); i++ {
				for j := i + 1; j < len(inputs); j++ {
					if inputs[j] < inputs[i] {
						inputs[i], inputs[j] = inputs[j], inputs[i]
					}
				}
			}
			for _, in := range inputs {
				want := c.IO[in]
				res, err := inst.Invoke("run", Value(uint32(in)))
				if err != nil {
					t.Fatalf("run(%d): %v", in, err)
				}
				if len(res) != 1 || int32(uint32(res[0])) != want {
					t.Fatalf("run(%d) = %v, want %d", in, res, want)
				}
			}
			for _, in := range c.TrapsOn {
				_, err := inst.Invoke("run", Value(uint32(in)))
				var tr *Trap
				if !errors.As(err, &tr) {
					t.Fatalf("run(%d): want trap, got %v", in, err)
				}
			}
		})
	}
}

func TestHostFunctions(t *testing.T) {
	b := builder.New()
	b.ImportFunc("env", "add1", builder.Sig(builder.V(wasm.I64), builder.V(wasm.I64)))
	f := b.Func("run", builder.V(wasm.I64), builder.V(wasm.I64))
	f.Get(0).Call(0)
	f.Done()

	var got []Value
	inst, err := Instantiate(b.Build(), Imports{
		"env": {"add1": &HostFunc{
			Type: wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}},
			Fn: func(args []Value) ([]Value, error) {
				got = append(got, args[0])
				return []Value{args[0] + 1}, nil
			},
		}},
	})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	res, err := inst.Invoke("run", 41)
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if len(res) != 1 || res[0] != 42 {
		t.Fatalf("got %v, want [42]", res)
	}
	if len(got) != 1 || got[0] != 41 {
		t.Fatalf("host saw %v, want [41]", got)
	}
}

func TestHostError(t *testing.T) {
	b := builder.New()
	b.ImportFunc("env", "boom", builder.Sig(nil, nil))
	f := b.Func("run", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Call(0).I32(0)
	f.Done()

	inst, err := Instantiate(b.Build(), Imports{
		"env": {"boom": &HostFunc{
			Type: wasm.FuncType{},
			Fn:   func([]Value) ([]Value, error) { return nil, errors.New("kaput") },
		}},
	})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	_, err = inst.Invoke("run", 0)
	var tr *Trap
	if !errors.As(err, &tr) || tr.Code != TrapHostError {
		t.Fatalf("want host-error trap, got %v", err)
	}
}

func TestStackExhaustion(t *testing.T) {
	b := builder.New()
	f := b.Func("run", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0).Call(0) // unconditional self-recursion
	f.Done()
	inst, err := Instantiate(b.Build(), nil)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	_, err = inst.Invoke("run", 1)
	var tr *Trap
	if !errors.As(err, &tr) || tr.Code != TrapStackExhausted {
		t.Fatalf("want stack exhaustion, got %v", err)
	}
}

func TestMissingImport(t *testing.T) {
	b := builder.New()
	b.ImportFunc("env", "gone", builder.Sig(nil, nil))
	b.Func("run", builder.V(wasm.I32), builder.V(wasm.I32)).I32(0).Done()
	if _, err := Instantiate(b.Build(), nil); err == nil {
		t.Fatal("want error for unresolved import")
	}
}

func TestMemoryGrowAndDigestInputs(t *testing.T) {
	b := builder.New()
	b.Memory(1)
	f := b.Func("run", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0).Op(wasm.OpMemoryGrow)
	f.Done()
	m := b.Build()
	m.Memories[0].Max, m.Memories[0].HasMax = 4, true
	inst, err := Instantiate(m, nil)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	res, err := inst.Invoke("run", 1)
	if err != nil || int32(uint32(res[0])) != 1 {
		t.Fatalf("grow(1) = %v, %v; want 1", res, err)
	}
	if len(inst.Mem) != 2*wasm.PageSize {
		t.Fatalf("memory = %d bytes, want %d", len(inst.Mem), 2*wasm.PageSize)
	}
	// Growing past the declared max fails with -1, not a trap.
	res, err = inst.Invoke("run", 100)
	if err != nil || int32(uint32(res[0])) != -1 {
		t.Fatalf("grow(100) = %v, %v; want -1", res, err)
	}
}

// TestInvokeArgumentCount pins the embedder boundary of both interpreters:
// a call passes exactly one argument per parameter, and a wrong count is an
// error before any code runs. f(i32) -> i32 returns its parameter plus a
// declared local, so an interpreter that copied a surplus argument into the
// local would compute f(1, 100) = 101.
func TestInvokeArgumentCount(t *testing.T) {
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	l := f.Local(wasm.I32)
	f.Get(0).Get(l).Op(wasm.OpI32Add)
	f.Done()
	m := b.Build()

	ref, err := Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := interp.Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	topReturns := 0
	prod.SetTopReturnHook(func(error) { topReturns++ })
	for _, side := range []struct {
		name   string
		invoke func(args ...Value) ([]Value, error)
	}{
		{"refinterp", func(args ...Value) ([]Value, error) { return ref.Invoke("f", args...) }},
		{"interp", func(args ...Value) ([]Value, error) { return prod.Invoke("f", args...) }},
	} {
		for _, args := range [][]Value{nil, {1, 100}} {
			res, err := side.invoke(args...)
			if err == nil {
				t.Errorf("%s: f%v = %v, want an argument-count error", side.name, args, res)
				continue
			}
			if want := fmt.Sprintf("function 0 (f) called with %d arguments, want 1", len(args)); !strings.Contains(err.Error(), want) {
				t.Errorf("%s: f%v: error %q does not say %q", side.name, args, err, want)
			}
		}
		if res, err := side.invoke(1); err != nil || len(res) != 1 || res[0] != 1 {
			t.Errorf("%s: f(1) = %v, %v after the mismatches; want [1]", side.name, res, err)
		}
	}
	if topReturns != 1 {
		t.Errorf("interp fired the top-return hook %d times; want 1, for the well-formed call only", topReturns)
	}
}
