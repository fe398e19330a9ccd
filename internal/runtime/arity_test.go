package runtime

// Regression tests for the hook argument vector: the old generic dispatcher
// indexed the lowered argument vector without checking its length, so an
// embedder invoking a hook import directly with the wrong arguments panicked
// the host process with index-out-of-range. interp.Instance.Invoke now
// checks the argument count of every call against the callee's signature
// before any code runs, so neither dispatch backend is ever handed a vector
// of the wrong size.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/interp"
)

// invokeHook invokes hook import idx of inst directly and reports a panic
// escaping the invocation as an error.
func invokeHook(inst *interp.Instance, idx uint32, args []interp.Value) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("direct hook invocation panicked the host: %v", r)
		}
	}()
	_, err = inst.InvokeIdx(idx, args...)
	return err
}

// checkBoundaryError requires err to be the argument-count error of the
// invocation boundary: not nil, not a panic, not a *RuntimeFault.
func checkBoundaryError(t *testing.T, what string, err error, got, want int) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: %d args (want %d): no error", what, got, want)
		return
	}
	var fault *interp.RuntimeFault
	if errors.As(err, &fault) {
		t.Errorf("%s: %d args (want %d): runtime fault %v", what, got, want, err)
		return
	}
	if msg := fmt.Sprintf("called with %d arguments, want %d", got, want); !strings.Contains(err.Error(), msg) {
		t.Errorf("%s: error %q does not say %q", what, err, msg)
	}
}

// TestHookArityMismatchTrapsNotPanics sends vectors that are empty, one word
// short and one word long to every hook import, through the public invoke
// path, under both dispatch backends; then a correct vector, which must
// still dispatch.
func TestHookArityMismatchTrapsNotPanics(t *testing.T) {
	for _, set := range paritySets(t) {
		md := set.md
		rtE := New(md, struct{}{})
		rtE.SetEmitter(NewEmitter(64), analysis.AllCaps|analysis.CapBlockCoverage)
		for backend, rt := range map[string]*Runtime{"trampoline": New(md, &recorder{}), "encoder": rtE} {
			inst, err := interp.Instantiate(set.instrumented, rt.Imports())
			if err != nil {
				t.Fatal(err)
			}
			for i := range md.Specs {
				spec := &md.Specs[i]
				idx := uint32(md.NumImportedFuncs + i)
				arity := len(spec.WasmType().Params)
				full := synthArgs(spec, arity)
				what := fmt.Sprintf("%s: %s: hook %s", set.name, backend, spec.Name)
				for _, bad := range [][]interp.Value{
					nil,
					full[:arity-1],
					append(append([]interp.Value(nil), full...), 0),
				} {
					checkBoundaryError(t, what, invokeHook(inst, idx, bad), len(bad), arity)
				}
				if err := invokeHook(inst, idx, full); err != nil {
					t.Errorf("%s: correct call after the mismatches: %v", what, err)
				}
			}
		}
	}
}

// TestHookImportInvokedDirectlyTraps drives the mismatch end-to-end: an
// embedder calling a hook import through the public invoke path with too few
// arguments must get the boundary's error back, not a crash, and the
// instance stays usable.
func TestHookImportInvokedDirectlyTraps(t *testing.T) {
	for _, set := range paritySets(t) {
		md := set.md
		rt := New(md, &recorder{})
		inst, err := interp.Instantiate(set.instrumented, rt.Imports())
		if err != nil {
			t.Fatal(err)
		}
		// Hook imports sit at [NumImportedFuncs, NumImportedFuncs+NumHooks) in
		// the instrumented index space, in metadata order.
		for k := range md.Specs {
			spec := &md.Specs[k]
			idx := uint32(md.NumImportedFuncs + k)
			arity := len(spec.WasmType().Params)
			what := fmt.Sprintf("%s: hook %s", set.name, spec.Name)
			checkBoundaryError(t, what, invokeHook(inst, idx, nil), 0, arity) // every hook wants >= 2
			if err := invokeHook(inst, idx, synthArgs(spec, arity)); err != nil {
				t.Errorf("%s: correct call after the mismatch: %v", what, err)
			}
		}
	}
}
