package analyses_test

import (
	"testing"

	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

// TestOriginOfZero: a zero produced by a subtraction is stored to memory,
// loaded back, and the analysis must point at the subtraction.
func TestOriginOfZero(t *testing.T) {
	b := builder.New()
	b.Memory(1)
	f := b.Func("main", builder.V(wasm.I32), builder.V(wasm.I32))
	// instr 0-2: x - x (always 0), produced at instr 2 (i32.sub)
	f.Get(0).Get(0).Op(wasm.OpI32Sub)
	v := f.Local(wasm.I32)
	f.Set(v)
	// store it at address 32, then load it back
	f.I32(32).Get(v).Store(wasm.OpI32Store, 0)
	f.I32(32).Load(wasm.OpI32Load, 0)
	f.Done()
	m := b.Build()

	o := analyses.NewOrigin()
	inst, err := newSession(t, m, o).Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("main", interp.I32(5))
	if err != nil {
		t.Fatal(err)
	}
	if interp.AsI32(res[0]) != 0 {
		t.Fatalf("result = %d", interp.AsI32(res[0]))
	}
	if len(o.ZeroLoads) != 1 {
		t.Fatalf("zero loads: %v", o.ZeroLoads)
	}
	for loadLoc, origin := range o.ZeroLoads {
		if origin.Instr != 2 { // the i32.sub
			t.Errorf("zero at %v traced to %v, want instr 2 (i32.sub)", loadLoc, origin)
		}
	}
}

// TestOriginThroughCall: origins propagate through a call's return value.
func TestOriginThroughCall(t *testing.T) {
	b := builder.New()
	b.Memory(1)
	zero := b.Func("zero", nil, builder.V(wasm.I32))
	zero.I32(0) // instr 0 in func 0: the const producing the zero
	zero.Done()
	f := b.Func("main", nil, builder.V(wasm.I32))
	f.I32(64).Call(zero.Index).Store(wasm.OpI32Store, 0)
	f.I32(64).Load(wasm.OpI32Load, 0)
	f.Done()
	m := b.Build()

	o := analyses.NewOrigin()
	inst, err := newSession(t, m, o).Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("main"); err != nil {
		t.Fatal(err)
	}
	if len(o.ZeroLoads) != 1 {
		t.Fatalf("zero loads: %v", o.ZeroLoads)
	}
	for _, origin := range o.ZeroLoads {
		want := analysis.Location{Func: int(zero.Index), Instr: 0}
		if origin != want {
			t.Errorf("origin = %v, want %v (the i32.const 0 inside zero())", origin, want)
		}
	}
}
