package runtime

// Regression test for the argReader bounds-check hole: the old generic
// dispatcher indexed the lowered argument vector without checking its
// length, so a corrupted or mismatched instrumented module — or an embedder
// invoking a hook import directly with the wrong arguments — panicked the
// host process with index-out-of-range. Trampolines and encoders compute the
// expected arity once at bind time and trap (TrapInvalidMetadata) on any
// mismatch.

import (
	"strings"
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/interp"
)

func TestHookArityMismatchTrapsNotPanics(t *testing.T) {
	for _, set := range paritySets(t) {
		md := set.md
		rt := New(md, &recorder{})
		inst, err := interp.Instantiate(set.instrumented, rt.Imports())
		if err != nil {
			t.Fatal(err)
		}
		rtE := New(md, struct{}{})
		rtE.SetEmitter(NewEmitter(64), analysis.AllCaps|analysis.CapBlockCoverage)
		tramps, encs := hostFuncs(rt), hostFuncs(rtE)

		for i := range md.Hooks {
			spec := &md.Hooks[i]
			arity := spec.Layout().Arity
			full := synthArgs(spec, arity)
			for _, bad := range [][]interp.Value{
				nil,
				full[:arity-1],
				append(append([]interp.Value(nil), full...), 0),
			} {
				checkTrap := func(backend string, err any) {
					trap, ok := err.(*interp.Trap)
					if !ok {
						t.Errorf("%s: hook %s: %d lowered args (want %d): %s raised %T, want *interp.Trap",
							set.name, spec.Name, len(bad), arity, backend, err)
						return
					}
					if trap.Code != TrapInvalidMetadata {
						t.Errorf("%s: hook %s: %s trap code %q, want %q", set.name, spec.Name, backend, trap.Code, TrapInvalidMetadata)
					}
				}
				// Neither backend has an error path: both panic with the
				// trap, which the interpreter's invocation root contains
				// (TestHookImportInvokedDirectlyTraps).
				for backend, hf := range map[string]*interp.HostFunc{"trampoline": tramps[i], "encoder": encs[i]} {
					func() {
						defer func() { checkTrap(backend, recover()) }()
						hf.Fast(inst, bad)
					}()
				}
			}
		}
	}
}

// TestHookImportInvokedDirectlyTraps drives the mismatch end-to-end: an
// embedder calling a hook import through the public invoke path with too few
// arguments must get an error back, not a crash.
func TestHookImportInvokedDirectlyTraps(t *testing.T) {
	for _, set := range paritySets(t) {
		md := set.md
		rt := New(md, &recorder{})
		inst, err := interp.Instantiate(set.instrumented, rt.Imports())
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("direct hook invocation panicked the host: %v", r)
			}
		}()
		// Hook imports sit at [NumImportedFuncs, NumImportedFuncs+NumHooks) in
		// the instrumented index space, in metadata order.
		for k := range md.Hooks {
			idx := uint32(md.NumImportedFuncs + k)
			_, err := inst.InvokeIdx(idx) // zero args; every hook wants >= 2
			if err == nil {
				t.Fatalf("%s: hook %s: 0-arg direct invocation must error", set.name, md.Hooks[k].Name)
			}
			if !strings.Contains(err.Error(), TrapInvalidMetadata) {
				t.Errorf("%s: hook %s: error %q does not mention %q", set.name, md.Hooks[k].Name, err, TrapInvalidMetadata)
			}
		}
	}
}
