package interp_test

// Tests for the zero-copy host-call convention (HostFunc.Fast) and
// compile-time dead-hook elision (HostFunc.NoOp): no-op hosts are never
// called, their pure argument lowering is unwound, impure argument residue
// is dropped correctly, and Fast-only hosts work through both the threaded
// fast path and the generic invoke path.

import (
	"testing"

	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

func hostCounter(calls *int, params ...wasm.ValType) *interp.HostFunc {
	return &interp.HostFunc{
		Type: wasm.FuncType{Params: params},
		Fast: func(*interp.Instance, []interp.Value) { *calls++ },
	}
}

// TestNoOpHostElided: a call to a NoOp host must be removed at compile time
// — the host is never invoked — and the pure pushes lowering its arguments
// must be unwound so the surrounding computation is unaffected.
func TestNoOpHostElided(t *testing.T) {
	b := builder.New()
	noop2 := b.ImportFunc("env", "noop2", wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}})
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0).I32(3).Op(wasm.OpI32Add) // live value below the hook args
	f.I32(1).Get(0)                   // pure arg lowering (const + local.get)
	f.Call(noop2)
	f.Done()
	var calls int
	hf := hostCounter(&calls, wasm.I32, wasm.I32)
	hf.NoOp = true
	inst, err := interp.Instantiate(b.Build(), interp.Imports{"env": {"noop2": hf}})
	if err != nil {
		t.Fatal(err)
	}
	if got := invokeI32(t, inst, "f", interp.I32(7)); got != 10 {
		t.Errorf("f(7) = %d, want 10", got)
	}
	if calls != 0 {
		t.Errorf("no-op host called %d times, want 0 (dead-hook elision)", calls)
	}
}

// TestNoOpHostImpureArgsDropped: when an argument comes from a source the
// compiler cannot unwind (a call to a defined function), the side effect
// must still happen and the residue must be dropped, keeping the stack
// balanced.
func TestNoOpHostImpureArgsDropped(t *testing.T) {
	b := builder.New()
	noop2 := b.ImportFunc("env", "noop2", wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}})
	g := b.Func("g", builder.V(wasm.I32), builder.V(wasm.I32))
	g.Get(0).I32(2).Op(wasm.OpI32Mul)
	g.Done()
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0).I32(1).Op(wasm.OpI32Add) // result value, below the hook args
	f.Get(0).Call(g.Index)            // impure arg (defined call): not unwindable
	f.I32(5)                          // pure arg above it
	f.Call(noop2)
	f.Done()
	var calls int
	hf := hostCounter(&calls, wasm.I32, wasm.I32)
	hf.NoOp = true
	inst, err := interp.Instantiate(b.Build(), interp.Imports{"env": {"noop2": hf}})
	if err != nil {
		t.Fatal(err)
	}
	if got := invokeI32(t, inst, "f", interp.I32(7)); got != 8 {
		t.Errorf("f(7) = %d, want 8", got)
	}
	if calls != 0 {
		t.Errorf("no-op host called %d times, want 0", calls)
	}
}

// TestNoOpWithResultsNotElided: NoOp is only honored for result-less hosts;
// one that produces a value must keep running.
func TestNoOpWithResultsNotElided(t *testing.T) {
	b := builder.New()
	seven := b.ImportFunc("env", "seven", wasm.FuncType{Results: []wasm.ValType{wasm.I32}})
	f := b.Func("f", nil, builder.V(wasm.I32))
	f.Call(seven)
	f.Done()
	var calls int
	hf := &interp.HostFunc{
		Type: wasm.FuncType{Results: []wasm.ValType{wasm.I32}},
		NoOp: true, // bogus flag: must be ignored for result-carrying hosts
		Fn: func(_ *interp.Instance, _ []interp.Value) ([]interp.Value, error) {
			calls++
			return []interp.Value{interp.I32(7)}, nil
		},
	}
	inst, err := interp.Instantiate(b.Build(), interp.Imports{"env": {"seven": hf}})
	if err != nil {
		t.Fatal(err)
	}
	if got := invokeI32(t, inst, "f"); got != 7 {
		t.Errorf("f() = %d, want 7", got)
	}
	if calls != 1 {
		t.Errorf("host called %d times, want 1", calls)
	}
}

// TestFastConventionReceivesStackWindow: a live Fast host sees exactly the
// lowered arguments, through both the threaded host-call opcode and the
// generic invoke path (InvokeIdx on the import index).
func TestFastConventionReceivesStackWindow(t *testing.T) {
	b := builder.New()
	sink := b.ImportFunc("env", "sink", wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}})
	f := b.Func("f", builder.V(wasm.I32), nil)
	f.Get(0).I32(41).Call(sink)
	f.Done()
	var got [][2]uint64
	hf := &interp.HostFunc{
		Type: wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}},
		Fast: func(_ *interp.Instance, args []interp.Value) {
			// The window aliases the operand stack: copy, never retain.
			got = append(got, [2]uint64{args[0], args[1]})
		},
	}
	inst, err := interp.Instantiate(b.Build(), interp.Imports{"env": {"sink": hf}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("f", interp.I32(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.InvokeIdx(sink, interp.I32(1), interp.I32(2)); err != nil {
		t.Fatal(err)
	}
	want := [][2]uint64{{9, 41}, {1, 2}}
	if len(got) != len(want) {
		t.Fatalf("saw %d calls: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("call %d: args %v, want %v", i, got[i], want[i])
		}
	}
}

// TestFastOnlyHostWithResultsRejected: the Fast convention is result-less by
// contract; instantiation must reject a Fast-only host that claims results.
func TestFastOnlyHostWithResultsRejected(t *testing.T) {
	b := builder.New()
	b.ImportFunc("env", "bad", wasm.FuncType{Results: []wasm.ValType{wasm.I32}})
	f := b.Func("f", nil, nil)
	f.Done()
	hf := &interp.HostFunc{
		Type: wasm.FuncType{Results: []wasm.ValType{wasm.I32}},
		Fast: func(*interp.Instance, []interp.Value) {},
	}
	if _, err := interp.Instantiate(b.Build(), interp.Imports{"env": {"bad": hf}}); err == nil {
		t.Fatal("expected instantiation error for Fast-only host with results")
	}
}
