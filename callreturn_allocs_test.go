package wasabi_test

import (
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

// callHeavyModule builds main(n): a loop of n calls to a callee with an
// (i32, i64) -> i64 signature, so every call_pre/call_post/return hook
// carries a value vector (the i64 exercises the split/join path too).
func callHeavyModule() *wasm.Module {
	b := builder.New()
	callee := b.Func("callee", builder.V(wasm.I32, wasm.I64), builder.V(wasm.I64))
	callee.Get(1).I64(3).Op(wasm.OpI64Add)
	callee.Done()
	f := b.Func("main", builder.V(wasm.I32), builder.V(wasm.I64))
	i := f.Local(wasm.I32)
	acc := f.Local(wasm.I64)
	f.ForI32(i, func(fb *builder.FuncBuilder) { fb.Get(0) }, func(fb *builder.FuncBuilder) {
		fb.Get(i).Get(acc).Call(callee.Index).Set(acc)
	})
	f.Get(acc)
	f.Done()
	return b.Build()
}

// callRetObserver implements exactly the three slice-carrying call/return
// hooks with allocation-free bodies, so the measured allocations are the
// dispatcher's own.
type callRetObserver struct{ calls int64 }

func (c *callRetObserver) CallPre(analysis.Location, int, []analysis.Value, int64) { c.calls++ }
func (c *callRetObserver) CallPost(analysis.Location, []analysis.Value)            { c.calls++ }
func (c *callRetObserver) Return(analysis.Location, []analysis.Value)              { c.calls++ }

// TestCallReturnHooksZeroAllocs: the slice-carrying call/return hooks fill
// borrowed vectors the session's runtime owns, so a call-heavy invoke under
// call+return instrumentation allocates exactly what the uninstrumented
// invoke does — 0 allocations per dispatched hook call, end to end through
// a session, with and without the race detector.
func TestCallReturnHooksZeroAllocs(t *testing.T) {
	const loops = 512
	m := callHeavyModule()
	allocs := func(inst *interp.Instance) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := inst.Invoke("main", interp.I32(loops)); err != nil {
				t.Fatal(err)
			}
		})
	}

	base, err := interp.Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := mustEngine(t).Instrument(m, analysis.CapCallPre|analysis.CapCallPost|analysis.CapReturn)
	if err != nil {
		t.Fatal(err)
	}
	obs := &callRetObserver{}
	sess, err := compiled.NewSession(obs)
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hooked.Invoke("main", interp.I32(loops)); err != nil {
		t.Fatal(err)
	}
	// Per invoke: loops × (call_pre + call_post + callee return) + main's
	// own return.
	if want := int64(3*loops + 1); obs.calls != want {
		t.Fatalf("observer saw %d hook calls per invoke, want %d", obs.calls, want)
	}

	baseAllocs, hookedAllocs := allocs(base), allocs(hooked)
	t.Logf("allocs per invoke: uninstrumented %.2f, call/return hooks %.2f", baseAllocs, hookedAllocs)
	if hookedAllocs != baseAllocs {
		t.Errorf("call/return hooks allocate: %.2f allocs per invoke vs %.2f uninstrumented (%d hook calls)",
			hookedAllocs, baseAllocs, 3*loops+1)
	}
}
