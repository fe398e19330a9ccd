package builder_test

import (
	"testing"

	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/validate"
	"wasabi/internal/wasm"
)

func TestBuilderProducesValidModules(t *testing.T) {
	b := builder.New()
	b.Memory(2).ExportMemory("mem").Table(3)
	g := b.GlobalI32(true, 1)
	g64 := b.GlobalI64(false, 2)
	gf := b.GlobalF64(true, 3.5)
	host := b.ImportFunc("env", "h", builder.Sig(builder.V(wasm.F64), nil))
	b.Data(8, []byte{1, 2, 3})

	f := b.Func("f", builder.V(wasm.I32, wasm.F64), builder.V(wasm.F64))
	l := f.Local(wasm.F64)
	f.Get(1).Set(l)
	f.GGet(gf).Get(l).Op(wasm.OpF64Add).GSet(gf)
	f.GGet(g).Drop()
	f.GGet(g64).Drop()
	f.Get(l).Call(host)
	f.GGet(gf)
	f.Done()
	b.Elem(0, f.Index)

	m := b.Build()
	if err := validate.Module(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if f.Index != 1 { // after 1 import
		t.Errorf("func index = %d", f.Index)
	}
	if name := m.FuncName(f.Index); name != "f" {
		t.Errorf("FuncName = %q", name)
	}
	if _, ok := m.ExportedFunc("f"); !ok {
		t.Error("export missing")
	}
}

func TestLocalIndicesAfterParams(t *testing.T) {
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I32, wasm.I64), builder.V(wasm.I32))
	l0 := f.Local(wasm.F32)
	l1 := f.Local(wasm.F64)
	if l0 != 2 || l1 != 3 {
		t.Errorf("locals = %d, %d; want 2, 3", l0, l1)
	}
	f.Get(0)
	f.Done()
	if err := validate.Module(b.Build()); err != nil {
		t.Fatal(err)
	}
}

func TestForI32Semantics(t *testing.T) {
	b := builder.New()
	f := b.Func("sum", builder.V(wasm.I32), builder.V(wasm.I32))
	i := f.Local(wasm.I32)
	acc := f.Local(wasm.I32)
	f.ForI32(i, func(fb *builder.FuncBuilder) { fb.Get(0) }, func(fb *builder.FuncBuilder) {
		fb.Get(acc).Get(i).Op(wasm.OpI32Add).Set(acc)
	})
	f.Get(acc)
	f.Done()
	inst, err := interp.Instantiate(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int32{{0, 0}, {1, 0}, {5, 10}, {100, 4950}, {-3, 0}} {
		res, err := inst.Invoke("sum", interp.I32(c[0]))
		if err != nil {
			t.Fatal(err)
		}
		if got := interp.AsI32(res[0]); got != c[1] {
			t.Errorf("sum(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}
