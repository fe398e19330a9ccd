package interp

import (
	"errors"
	"strings"
	"testing"

	"wasabi/internal/wasm"
)

// regTestModule builds a module that calls an imported ("env", "boom") func
// from its start function.
func regTestModule() *wasm.Module {
	m := &wasm.Module{
		Types: []wasm.FuncType{{}},
		Imports: []wasm.Import{
			{Module: "env", Name: "boom", Kind: wasm.ExternFunc, TypeIdx: 0},
		},
		Funcs: []wasm.Func{{TypeIdx: 0, Body: []wasm.Instr{
			{Op: wasm.OpCall, Idx: 0},
			{Op: wasm.OpEnd},
		}}},
	}
	start := uint32(1)
	m.Start = &start
	return m
}

// TestInstantiateInReleasesNameOnPanic: a panic out of a host import during
// instantiation (here: the start function) must surface as a *RuntimeFault
// (fault isolation — the host process never sees the panic) AND release the
// reserved name — committing a half-built instance would poison later
// lookups and block retries (regression test for the err==nil-during-unwind
// commit bug).
func TestInstantiateInReleasesNameOnPanic(t *testing.T) {
	reg := NewRegistry()
	m := regTestModule()
	panicking := Imports{"env": {"boom": &HostFunc{
		Type: wasm.FuncType{},
		Fn: func(*Instance, []Value) ([]Value, error) {
			panic("host bug") // non-*Trap: converted to a RuntimeFault
		},
	}}}

	_, err := InstantiateWith(reg, "app", m, panicking, Config{})
	if err == nil {
		t.Fatal("expected the host panic to fail instantiation")
	}
	var fault *RuntimeFault
	if !errors.As(err, &fault) {
		t.Fatalf("expected a *RuntimeFault, got %T: %v", err, err)
	}
	if fault.Panic != any("host bug") {
		t.Errorf("fault carries panic value %v, want \"host bug\"", fault.Panic)
	}
	if !errors.Is(err, ErrRuntimeFault) {
		t.Error("fault does not match ErrRuntimeFault under errors.Is")
	}

	if _, ok := reg.Lookup("app"); ok {
		t.Error("panicked instantiation left a half-built instance registered")
	}
	// The name must be reusable: a working instantiation succeeds.
	ok := Imports{"env": {"boom": &HostFunc{
		Type: wasm.FuncType{},
		Fn:   func(*Instance, []Value) ([]Value, error) { return nil, nil },
	}}}
	if _, err := InstantiateWith(reg, "app", m, ok, Config{}); err != nil {
		t.Fatalf("retry under the same name failed: %v", err)
	}
	if _, found := reg.Lookup("app"); !found {
		t.Error("successful retry not registered")
	}
}

// TestInstantiateInReleasesNameOnError: a plain instantiation error (trap in
// the start function) releases the reservation too.
func TestInstantiateInReleasesNameOnError(t *testing.T) {
	reg := NewRegistry()
	m := regTestModule()
	failing := Imports{"env": {"boom": &HostFunc{
		Type: wasm.FuncType{},
		Fn: func(*Instance, []Value) ([]Value, error) {
			return nil, &Trap{Code: "boom"}
		},
	}}}
	if _, err := InstantiateWith(reg, "app", m, failing, Config{}); err == nil {
		t.Fatal("expected the start-function trap to fail instantiation")
	} else if !strings.Contains(err.Error(), "start function") {
		t.Errorf("unexpected error: %v", err)
	}
	if _, ok := reg.Lookup("app"); ok {
		t.Error("failed instantiation left the name registered")
	}
}
