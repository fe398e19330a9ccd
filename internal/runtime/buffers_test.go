package runtime

import (
	"fmt"
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/builder"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

// reentrant re-enters wasm from its outer CallPre callback, calling inner
// (whose call hook is dispatched one level deeper) and boom (whose call hook
// traps).
type reentrant struct {
	inst          *interp.Instance
	nested        bool
	onEntry, left string // the outer args on entry, and after the nested calls
	errs          []error
}

func (r *reentrant) CallPre(_ analysis.Location, _ int, args []analysis.Value, _ int64) {
	if r.nested {
		if args[0].I32() == 5 {
			panic(&interp.Trap{Code: "test trap"})
		}
		return
	}
	r.nested = true
	r.onEntry = fmt.Sprint(args)
	for _, fn := range []string{"inner", "boom"} {
		_, err := r.inst.Invoke(fn)
		r.errs = append(r.errs, err)
	}
	r.left = fmt.Sprint(args)
	r.nested = false
}

// TestNestedDispatchKeepsItsBuffers: a callback that re-enters wasm keeps
// its borrowed vector intact while the nested hooks fill their own level,
// and a nested callback that traps releases its level.
func TestNestedDispatchKeepsItsBuffers(t *testing.T) {
	b := builder.New()
	leaf := b.Func("leaf", builder.V(wasm.I32, wasm.I32), builder.V(wasm.I32))
	leaf.Get(0).Get(1).Op(wasm.OpI32Add)
	leaf.Done()
	for _, c := range []struct {
		name string
		x, y int32
	}{{"outer", 1, 2}, {"inner", 7, 8}, {"boom", 5, 6}} {
		f := b.Func(c.name, nil, builder.V(wasm.I32))
		f.I32(c.x).I32(c.y).Call(leaf.Index)
		f.Done()
	}
	instrumented, md, err := core.Instrument(b.Build(), core.Options{Hooks: analysis.CapCallPre.HookSet()})
	if err != nil {
		t.Fatal(err)
	}
	a := &reentrant{}
	rt := New(md, a)
	if a.inst, err = interp.Instantiate(instrumented, rt.Imports()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.inst.Invoke("outer"); err != nil {
		t.Fatal(err)
	}
	if a.onEntry != "[1:i32 2:i32]" || a.left != a.onEntry {
		t.Errorf("outer args: %s on entry, %s after re-entering wasm", a.onEntry, a.left)
	}
	if len(a.errs) != 2 || a.errs[0] != nil || a.errs[1] == nil {
		t.Errorf("nested invokes: %v, want inner to succeed and boom to trap", a.errs)
	}
	if rt.bufs.depth != 0 {
		t.Errorf("%d buffer levels still claimed after the invocation", rt.bufs.depth)
	}
}
