package interp_test

import (
	"strings"
	"testing"

	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/validate"
	"wasabi/internal/wasm"
)

func instantiate(t *testing.T, b *builder.Builder, imports interp.Imports) *interp.Instance {
	t.Helper()
	m := b.Build()
	if err := validate.Module(m); err != nil {
		t.Fatalf("test module invalid: %v", err)
	}
	inst, err := interp.Instantiate(m, imports)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func invokeI32(t *testing.T, inst *interp.Instance, name string, args ...interp.Value) int32 {
	t.Helper()
	res, err := inst.Invoke(name, args...)
	if err != nil {
		t.Fatalf("invoke %s: %v", name, err)
	}
	return interp.AsI32(res[0])
}

func TestIfElse(t *testing.T) {
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0)
	f.IfT(wasm.I32).I32(100).Else().I32(200).End()
	f.Done()
	inst := instantiate(t, b, nil)
	if got := invokeI32(t, inst, "f", interp.I32(1)); got != 100 {
		t.Errorf("true arm: %d", got)
	}
	if got := invokeI32(t, inst, "f", interp.I32(0)); got != 200 {
		t.Errorf("false arm: %d", got)
	}
	if got := invokeI32(t, inst, "f", interp.I32(-7)); got != 100 {
		t.Errorf("nonzero is true: %d", got)
	}
}

func TestIfWithoutElse(t *testing.T) {
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	acc := f.Local(wasm.I32)
	f.I32(1).Set(acc)
	f.Get(0).If().I32(41).Get(acc).Op(wasm.OpI32Add).Set(acc).End()
	f.Get(acc)
	f.Done()
	inst := instantiate(t, b, nil)
	if got := invokeI32(t, inst, "f", interp.I32(1)); got != 42 {
		t.Errorf("taken: %d", got)
	}
	if got := invokeI32(t, inst, "f", interp.I32(0)); got != 1 {
		t.Errorf("skipped: %d", got)
	}
}

func TestBrTable(t *testing.T) {
	// f(x): 0 -> 10, 1 -> 11, 2 -> 12, else -> 99.
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	out := f.Local(wasm.I32)
	f.Block().Block().Block().Block()
	f.Get(0)
	f.BrTable([]uint32{0, 1, 2}, 3)
	f.End().I32(10).Set(out).Br(2)
	f.End().I32(11).Set(out).Br(1)
	f.End().I32(12).Set(out).Br(0)
	f.End()
	f.Get(out)
	// default falls out of the outermost block with out still 0; patch it:
	f.IfT(wasm.I32).Get(out).Else().I32(99).End()
	f.Done()
	inst := instantiate(t, b, nil)
	for _, c := range [][2]int32{{0, 10}, {1, 11}, {2, 12}, {3, 99}, {1000, 99}, {-1, 99}} {
		if got := invokeI32(t, inst, "f", interp.I32(c[0])); got != c[1] {
			t.Errorf("f(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestLoopBackEdgeAndBlockResult(t *testing.T) {
	// Collatz length, capped: exercises loop back-edges, br_if, if/else.
	b := builder.New()
	f := b.Func("collatz", builder.V(wasm.I32), builder.V(wasm.I32))
	n := uint32(0)
	steps := f.Local(wasm.I32)
	f.Block().Loop()
	// if n <= 1 break
	f.Get(n).I32(1).Op(wasm.OpI32LeU).BrIf(1)
	// if steps > 1000 break (safety)
	f.Get(steps).I32(1000).Op(wasm.OpI32GtS).BrIf(1)
	// n = n%2 == 0 ? n/2 : 3n+1
	f.Get(n).I32(1).Op(wasm.OpI32And)
	f.IfT(wasm.I32)
	f.Get(n).I32(3).Op(wasm.OpI32Mul).I32(1).Op(wasm.OpI32Add)
	f.Else()
	f.Get(n).I32(1).Op(wasm.OpI32ShrU)
	f.End()
	f.Set(n)
	f.Get(steps).I32(1).Op(wasm.OpI32Add).Set(steps)
	f.Br(0)
	f.End().End()
	f.Get(steps)
	f.Done()
	inst := instantiate(t, b, nil)
	for _, c := range [][2]int32{{1, 0}, {2, 1}, {3, 7}, {6, 8}, {27, 111}} {
		if got := invokeI32(t, inst, "collatz", interp.I32(c[0])); got != c[1] {
			t.Errorf("collatz(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestBrCarriesBlockResult(t *testing.T) {
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Emit(wasm.BlockInstr(wasm.BlockType(wasm.I32)))
	f.I32(7)
	f.Get(0).BrIf(0) // carry 7 out if arg != 0
	f.Drop().I32(13)
	f.End()
	f.Done()
	inst := instantiate(t, b, nil)
	if got := invokeI32(t, inst, "f", interp.I32(1)); got != 7 {
		t.Errorf("taken: %d", got)
	}
	if got := invokeI32(t, inst, "f", interp.I32(0)); got != 13 {
		t.Errorf("fallthrough: %d", got)
	}
}

func TestEarlyReturn(t *testing.T) {
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0).If().I32(1).Return().End()
	f.I32(2)
	f.Done()
	inst := instantiate(t, b, nil)
	if got := invokeI32(t, inst, "f", interp.I32(5)); got != 1 {
		t.Errorf("early: %d", got)
	}
	if got := invokeI32(t, inst, "f", interp.I32(0)); got != 2 {
		t.Errorf("normal: %d", got)
	}
}

func TestRecursionAndStackExhaustion(t *testing.T) {
	b := builder.New()
	f := b.Func("fib", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0).I32(2).Op(wasm.OpI32LtS)
	f.IfT(wasm.I32)
	f.Get(0)
	f.Else()
	f.Get(0).I32(1).Op(wasm.OpI32Sub).Call(f.Index)
	f.Get(0).I32(2).Op(wasm.OpI32Sub).Call(f.Index)
	f.Op(wasm.OpI32Add)
	f.End()
	f.Done()

	inf := b.Func("forever", nil, nil)
	inf.Call(inf.Index)
	inf.Done()

	inst := instantiate(t, b, nil)
	if got := invokeI32(t, inst, "fib", interp.I32(15)); got != 610 {
		t.Errorf("fib(15) = %d", got)
	}
	_, err := inst.Invoke("forever")
	if err == nil || !strings.Contains(err.Error(), interp.TrapStackExhausted) {
		t.Errorf("infinite recursion: %v", err)
	}
	// The instance must remain usable after a trap.
	if got := invokeI32(t, inst, "fib", interp.I32(10)); got != 55 {
		t.Errorf("fib(10) after trap = %d", got)
	}
}

func TestCallIndirectTraps(t *testing.T) {
	b := builder.New()
	b.Table(4)
	g := b.Func("g", nil, builder.V(wasm.I32))
	g.I32(7)
	g.Done()
	h := b.Func("h", builder.V(wasm.F64), builder.V(wasm.F64)) // different type
	h.Get(0)
	h.Done()
	b.Elem(0, g.Index, h.Index) // slots 0,1 filled; 2,3 null
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0).CallIndirect(nil, builder.V(wasm.I32))
	f.Done()
	inst := instantiate(t, b, nil)

	if got := invokeI32(t, inst, "f", interp.I32(0)); got != 7 {
		t.Errorf("valid indirect call: %d", got)
	}
	_, err := inst.Invoke("f", interp.I32(1))
	if err == nil || !strings.Contains(err.Error(), interp.TrapIndirectMismatch) {
		t.Errorf("type mismatch: %v", err)
	}
	_, err = inst.Invoke("f", interp.I32(2))
	if err == nil || !strings.Contains(err.Error(), interp.TrapUndefinedElement) {
		t.Errorf("null slot: %v", err)
	}
	_, err = inst.Invoke("f", interp.I32(100))
	if err == nil || !strings.Contains(err.Error(), interp.TrapTableOutOfBounds) {
		t.Errorf("out of bounds: %v", err)
	}
}

func TestMemoryOps(t *testing.T) {
	b := builder.New()
	b.Memory(1)
	f := b.Func("roundtrip", builder.V(wasm.I32), builder.V(wasm.I32))
	// store8 then load8_s: sign extension through memory.
	f.I32(10).Get(0).Store(wasm.OpI32Store8, 0)
	f.I32(10).Load(wasm.OpI32Load8S, 0)
	f.Done()

	grow := b.Func("grow", builder.V(wasm.I32), builder.V(wasm.I32))
	grow.Get(0).Emit(wasm.Instr{Op: wasm.OpMemoryGrow})
	grow.Done()

	size := b.Func("size", nil, builder.V(wasm.I32))
	size.Emit(wasm.Instr{Op: wasm.OpMemorySize})
	size.Done()

	oob := b.Func("oob", builder.V(wasm.I32), builder.V(wasm.I32))
	oob.Get(0).Load(wasm.OpI32Load, 0)
	oob.Done()

	inst := instantiate(t, b, nil)
	if got := invokeI32(t, inst, "roundtrip", interp.I32(-1)); got != -1 {
		t.Errorf("store8/load8_s(-1) = %d", got)
	}
	if got := invokeI32(t, inst, "roundtrip", interp.I32(130)); got != -126 {
		t.Errorf("store8/load8_s(130) = %d", got)
	}
	if got := invokeI32(t, inst, "size"); got != 1 {
		t.Errorf("initial size = %d", got)
	}
	if got := invokeI32(t, inst, "grow", interp.I32(2)); got != 1 {
		t.Errorf("grow returned %d, want previous size 1", got)
	}
	if got := invokeI32(t, inst, "size"); got != 3 {
		t.Errorf("size after grow = %d", got)
	}
	// Growing past the cap reports -1 and leaves the memory usable.
	if got := invokeI32(t, inst, "grow", interp.I32(1<<20)); got != -1 {
		t.Errorf("oversized grow returned %d, want -1", got)
	}
	_, err := inst.Invoke("oob", interp.I32(3*wasm.PageSize-3))
	if err == nil || !strings.Contains(err.Error(), interp.TrapOutOfBounds) {
		t.Errorf("oob: %v", err)
	}
	// The last in-bounds word still works.
	if got := invokeI32(t, inst, "oob", interp.I32(3*wasm.PageSize-4)); got != 0 {
		t.Errorf("last word = %d", got)
	}
}

func TestGlobalsAndStart(t *testing.T) {
	b := builder.New()
	g := b.GlobalI32(true, 10)
	setup := b.Func("", nil, nil)
	setup.GGet(g).I32(32).Op(wasm.OpI32Add).GSet(g)
	b.Start(setup.Done())
	f := b.Func("get", nil, builder.V(wasm.I32))
	f.GGet(g)
	f.Done()
	inst := instantiate(t, b, nil)
	if got := invokeI32(t, inst, "get"); got != 42 {
		t.Errorf("start function did not run: global = %d", got)
	}
}

func TestHostFunctionInterop(t *testing.T) {
	var observed []int64
	b := builder.New()
	host := b.ImportFunc("env", "observe", builder.Sig(builder.V(wasm.I64), builder.V(wasm.I64)))
	f := b.Func("f", builder.V(wasm.I64), builder.V(wasm.I64))
	f.Get(0).Call(host).I64(1).Op(wasm.OpI64Add)
	f.Done()
	inst := instantiate(t, b, interp.Imports{
		"env": {
			"observe": &interp.HostFunc{
				Type: builder.Sig(builder.V(wasm.I64), builder.V(wasm.I64)),
				Fn: func(_ *interp.Instance, args []interp.Value) ([]interp.Value, error) {
					observed = append(observed, interp.AsI64(args[0]))
					return []interp.Value{interp.I64(interp.AsI64(args[0]) * 2)}, nil
				},
			},
		},
	})
	res, err := inst.Invoke("f", interp.I64(21))
	if err != nil {
		t.Fatal(err)
	}
	if got := interp.AsI64(res[0]); got != 43 {
		t.Errorf("f(21) = %d, want 43", got)
	}
	if len(observed) != 1 || observed[0] != 21 {
		t.Errorf("host observed %v", observed)
	}
	// Import type mismatch must fail instantiation.
	_, err = interp.Instantiate(b.Build(), interp.Imports{
		"env": {"observe": &interp.HostFunc{Type: builder.Sig(nil, nil), Fn: nil}},
	})
	if err == nil {
		t.Error("expected type-mismatch instantiation error")
	}
}

func TestUnreachableTrap(t *testing.T) {
	b := builder.New()
	f := b.Func("f", nil, nil)
	f.Op(wasm.OpUnreachable)
	f.Done()
	inst := instantiate(t, b, nil)
	_, err := inst.Invoke("f")
	if err == nil || !strings.Contains(err.Error(), interp.TrapUnreachable) {
		t.Errorf("got %v", err)
	}
}
