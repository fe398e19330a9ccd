package interp

// In-package tests for the containment layer: guarded compilation (fuel
// metering + asynchronous interruption), resource limits, and panic-to-fault
// isolation. They live inside the package so the compiled threaded form is
// inspectable — the zero-overhead claim is structural (no guard instructions
// when disabled), not a timing assertion.

import (
	"context"
	"errors"
	"testing"
	"time"

	"wasabi/internal/builder"
	"wasabi/internal/wasm"
)

// spinModule exports "spin", an infinite loop.
func spinModule() *wasm.Module {
	b := builder.New()
	f := b.Func("spin", nil, nil)
	f.Loop().Br(0).End()
	f.Done()
	return b.Build()
}

// countModule exports "count"(n), a loop of n iterations returning n.
func countModule() *wasm.Module {
	b := builder.New()
	f := b.Func("count", builder.V(wasm.I32), builder.V(wasm.I32))
	acc := f.Local(wasm.I32)
	f.Loop()
	f.Get(acc).I32(1).Op(wasm.OpI32Add).Set(acc)
	f.Get(acc).Get(0).Op(wasm.OpI32LtU).BrIf(0)
	f.End()
	f.Get(acc)
	f.Done()
	return b.Build()
}

func countGuards(cf *compiledFunc) int {
	n := 0
	for _, in := range cf.code {
		if in.op == iGuard {
			n++
		}
	}
	return n
}

// TestUnguardedCompileEmitsNoGuards is the zero-overhead guarantee in its
// structural form: with Config.Guarded off, the threaded code contains not a
// single guard instruction — disabled metering costs nothing because there
// is nothing to execute.
func TestUnguardedCompileEmitsNoGuards(t *testing.T) {
	for name, m := range map[string]*wasm.Module{"spin": spinModule(), "count": countModule()} {
		inst, err := Instantiate(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range inst.funcs {
			if cf := inst.funcs[i].code; cf != nil {
				if n := countGuards(cf); n != 0 {
					t.Errorf("%s: unguarded func %d compiled with %d guard instrs", name, i, n)
				}
			}
		}
	}
}

// TestGuardedLoopHeaderIsGuarded: the loop body's guard must sit at the loop
// header position (the branch target), so every iteration re-executes it —
// that is what makes an infinite loop interruptible at all.
func TestGuardedLoopHeaderIsGuarded(t *testing.T) {
	inst, err := InstantiateWith(nil, "", spinModule(), nil, Config{Guarded: true})
	if err != nil {
		t.Fatal(err)
	}
	cf := inst.funcs[0].code
	if countGuards(cf) == 0 {
		t.Fatal("guarded compile emitted no guard instructions")
	}
	found := false
	for _, in := range cf.code {
		if in.op == iBr && cf.code[in.a].op == iGuard {
			found = true
		}
	}
	if !found {
		t.Error("loop back-edge does not target a guard instruction")
	}
}

func TestFuelExhaustionStopsInfiniteLoop(t *testing.T) {
	inst, err := InstantiateWith(nil, "", spinModule(), nil, Config{Guarded: true, Fuel: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	_, err = inst.Invoke("spin")
	if !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("infinite loop under fuel: err = %v, want ErrFuelExhausted", err)
	}
	var trap *Trap
	if !errors.As(err, &trap) || trap.Code != TrapFuelExhausted {
		t.Fatalf("err = %v, want *Trap{TrapFuelExhausted}", err)
	}
	if inst.Fuel() != 0 {
		t.Errorf("after exhaustion Fuel() = %d, want 0", inst.Fuel())
	}
	// The instance stays usable: a topped-up budget runs (and exhausts) again.
	inst.SetFuel(5_000)
	if _, err := inst.Invoke("spin"); !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("second run after SetFuel: err = %v, want ErrFuelExhausted", err)
	}
}

// TestFuelExhaustionStopsRecursion: calls are charged too (every call runs
// the callee's entry guard), so runaway recursion burns fuel before it
// exhausts the call-depth limit.
func TestFuelExhaustionStopsRecursion(t *testing.T) {
	b := builder.New()
	f := b.Func("rec", nil, nil)
	f.Call(0)
	f.Done()
	inst, err := InstantiateWith(nil, "", b.Build(), nil, Config{Guarded: true, Fuel: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("rec"); !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("infinite recursion under fuel: err = %v, want ErrFuelExhausted", err)
	}
}

// TestFuelDeterminism: identical invocations consume identical fuel, and
// consumption scales with iterations — the "deterministic" in deterministic
// metering.
func TestFuelDeterminism(t *testing.T) {
	inst, err := InstantiateWith(nil, "", countModule(), nil, Config{Guarded: true})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1 << 40
	consumed := func(n int32) uint64 {
		inst.SetFuel(budget)
		if _, err := inst.Invoke("count", I32(n)); err != nil {
			t.Fatal(err)
		}
		return budget - inst.Fuel()
	}
	c1, c1again, c2 := consumed(1000), consumed(1000), consumed(2000)
	if c1 != c1again {
		t.Errorf("same invocation consumed %d then %d fuel", c1, c1again)
	}
	if c2 <= c1 {
		t.Errorf("2000 iterations consumed %d fuel, 1000 consumed %d", c2, c1)
	}
	if c1 == 0 {
		t.Error("loop consumed no fuel")
	}
}

func TestInterruptStopsInfiniteLoop(t *testing.T) {
	inst, err := InstantiateWith(nil, "", spinModule(), nil, Config{Guarded: true})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		inst.Interrupt()
	}()
	_, err = inst.Invoke("spin")
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	// The flag is sticky until cleared: the next invocation traps at its
	// first guard.
	if _, err := inst.Invoke("spin"); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("sticky interrupt: err = %v, want ErrInterrupted", err)
	}
	inst.ClearInterrupt()
	inst.SetFuel(1000)
	if _, err := inst.Invoke("spin"); !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("after ClearInterrupt: err = %v, want ErrFuelExhausted", err)
	}
}

func TestInvokeContextCancelMidLoop(t *testing.T) {
	inst, err := InstantiateWith(nil, "", spinModule(), nil, Config{Guarded: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err = inst.InvokeInterruptible(ctx, nil, "spin")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted too", err)
	}
	var ie *InterruptError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %T, want *InterruptError", err)
	}
	// The interrupt was cleared on the way out: the instance runs again.
	inst.SetFuel(1000)
	if _, err := inst.Invoke("spin"); !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("instance wedged after cancellation: %v", err)
	}
}

func TestInvokeContextDeadlineMidLoop(t *testing.T) {
	inst, err := InstantiateWith(nil, "", spinModule(), nil, Config{Guarded: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	if _, err := inst.InvokeInterruptible(ctx, nil, "spin"); !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want DeadlineExceeded and ErrInterrupted", err)
	}
}

// TestInvokeContextDone: an already-expired context fails fast without
// running guest code, and a context that never fires adds nothing.
func TestInvokeContextDone(t *testing.T) {
	inst, err := InstantiateWith(nil, "", countModule(), nil, Config{Guarded: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inst.InvokeInterruptible(ctx, nil, "count", I32(10)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}
	res, err := inst.InvokeInterruptible(context.Background(), nil, "count", I32(10))
	if err != nil || len(res) != 1 || AsI32(res[0]) != 10 {
		t.Fatalf("count(10) under background ctx = %v, %v", res, err)
	}
}

func TestMemoryLimitConfig(t *testing.T) {
	mod := func() *wasm.Module {
		b := builder.New().Memory(2)
		f := b.Func("pages", nil, builder.V(wasm.I32))
		f.Op(wasm.OpMemorySize)
		f.Done()
		return b.Build()
	}
	inst, err := InstantiateWith(nil, "", mod(), nil, Config{MaxMemoryPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Memory.Grow(3); got != -1 {
		t.Errorf("Grow(3) past the 4-page cap = %d, want -1", got)
	}
	if got := inst.Memory.Grow(2); got != 2 {
		t.Errorf("Grow(2) within the cap = %d, want 2", got)
	}
	// A declared minimum beyond the cap is refused at instantiation.
	if _, err := InstantiateWith(nil, "", mod(), nil, Config{MaxMemoryPages: 1}); !errors.Is(err, ErrLimit) {
		t.Errorf("min 2 pages under cap 1: err = %v, want ErrLimit", err)
	}
	// Zero still means the package default, not zero pages.
	inst, err = InstantiateWith(nil, "", mod(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Memory.Grow(1); got != 2 {
		t.Errorf("default-config Grow(1) = %d, want 2", got)
	}
}

func TestTableLimitConfig(t *testing.T) {
	mod := func(min uint32) *wasm.Module {
		b := builder.New().Table(min)
		f := b.Func("f", nil, nil)
		f.Done()
		return b.Build()
	}
	inst, err := InstantiateWith(nil, "", mod(DefaultMaxTableElems), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(inst.Table.Elems); got != DefaultMaxTableElems {
		t.Errorf("table at the limit holds %d elems, want %d", got, DefaultMaxTableElems)
	}
	if _, err := InstantiateWith(nil, "", mod(DefaultMaxTableElems+1), nil, Config{}); !errors.Is(err, ErrLimit) {
		t.Errorf("min %d elems over the limit: err = %v, want ErrLimit", DefaultMaxTableElems+1, err)
	}
}

func TestMaxCallDepthConfig(t *testing.T) {
	b := builder.New()
	f := b.Func("rec", nil, nil)
	f.Call(0)
	f.Done()
	inst, err := InstantiateWith(nil, "", b.Build(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = inst.Invoke("rec")
	var trap *Trap
	if !errors.As(err, &trap) || trap.Code != TrapStackExhausted {
		t.Fatalf("err = %v, want TrapStackExhausted", err)
	}
}

// deepStackModule exports "deep", whose operand stack peaks at n values.
func deepStackModule(n int) *wasm.Module {
	b := builder.New()
	f := b.Func("deep", nil, nil)
	// Each value is computed (i32.eqz), so its push survives the drops:
	// a constant the next instruction drops is never pushed at all.
	for i := 0; i < n; i++ {
		f.I32(int32(i)).Op(wasm.OpI32Eqz)
	}
	for i := 0; i < n; i++ {
		f.Drop()
	}
	f.Done()
	return b.Build()
}

func TestMaxFuncStackLimit(t *testing.T) {
	if _, err := InstantiateWith(nil, "", deepStackModule(DefaultMaxFuncStack+1), nil, Config{}); !errors.Is(err, ErrLimit) {
		t.Errorf("%d-deep operand stack over the limit: err = %v, want ErrLimit", DefaultMaxFuncStack+1, err)
	}
	if _, err := InstantiateWith(nil, "", deepStackModule(DefaultMaxFuncStack), nil, Config{}); err != nil {
		t.Errorf("%d-deep operand stack at the limit: %v", DefaultMaxFuncStack, err)
	}
}

// TestHostPanicBecomesFault: fault isolation end to end — a panicking host
// import fails the invocation with a typed *RuntimeFault carrying execution
// context, and the instance stays usable.
func TestHostPanicBecomesFault(t *testing.T) {
	b := builder.New()
	boom := b.ImportFunc("env", "boom", builder.Sig(nil, nil))
	f := b.Func("go", nil, nil)
	f.Call(boom)
	f.Done()
	armed := true
	imports := Imports{"env": {"boom": &HostFunc{
		Type: wasm.FuncType{},
		Fn: func(*Instance, []Value) ([]Value, error) {
			if armed {
				panic("kaboom")
			}
			return nil, nil
		},
	}}}
	inst, err := Instantiate(b.Build(), imports)
	if err != nil {
		t.Fatal(err)
	}
	_, err = inst.Invoke("go")
	var fault *RuntimeFault
	if !errors.As(err, &fault) {
		t.Fatalf("err = %T (%v), want *RuntimeFault", err, err)
	}
	if fault.Panic != any("kaboom") {
		t.Errorf("fault.Panic = %v, want kaboom", fault.Panic)
	}
	if fault.FuncIdx != 1 {
		t.Errorf("fault.FuncIdx = %d, want 1 (the calling wasm function)", fault.FuncIdx)
	}
	if len(fault.Stack) == 0 {
		t.Error("fault carries no Go stack")
	}
	if !errors.Is(err, ErrRuntimeFault) {
		t.Error("fault does not match ErrRuntimeFault")
	}
	armed = false
	if _, err := inst.Invoke("go"); err != nil {
		t.Fatalf("instance unusable after fault: %v", err)
	}
}

// TestUnhandledOpcodeFaults: the interpreter's own dispatch gaps panic with
// a typed fault (converted to an error at the invocation boundary), not a
// plain string that would crash an embedder.
func TestUnhandledOpcodeFaults(t *testing.T) {
	for name, fn := range map[string]func(){
		"binop": func() { binop(wasm.OpNop, 0, 0) },
		"unop":  func() { unop(wasm.OpNop, 0) },
	} {
		func() {
			defer func() {
				if _, ok := recover().(*RuntimeFault); !ok {
					t.Errorf("%s: unhandled opcode did not panic with *RuntimeFault", name)
				}
			}()
			fn()
		}()
	}
}
