package interp_test

// Regression tests for the limits semantics of Memory: a declared
// maximum of 0 is a real bound ((memory 0 0) may never grow), distinct from
// an absent maximum, which is bounded only by the implementation cap.

import (
	"strings"
	"testing"

	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

func TestMemoryGrowLimits(t *testing.T) {
	t.Run("grow to declared max", func(t *testing.T) {
		m := interp.NewMemory(wasm.Limits{Min: 1, Max: 3, HasMax: true})
		if got := m.Grow(2); got != 1 {
			t.Fatalf("Grow(2) = %d, want previous size 1", got)
		}
		if got := m.Pages(); got != 3 {
			t.Fatalf("Pages() = %d, want 3", got)
		}
	})
	t.Run("grow past declared max fails", func(t *testing.T) {
		m := interp.NewMemory(wasm.Limits{Min: 1, Max: 2, HasMax: true})
		if got := m.Grow(2); got != -1 {
			t.Fatalf("Grow(2) past max = %d, want -1", got)
		}
		if got := m.Pages(); got != 1 {
			t.Fatalf("failed grow must not change size: %d", got)
		}
		// Exactly reaching the max still works afterwards.
		if got := m.Grow(1); got != 1 {
			t.Fatalf("Grow(1) to max = %d, want 1", got)
		}
	})
	t.Run("declared max of zero is a real bound", func(t *testing.T) {
		m := interp.NewMemory(wasm.Limits{Min: 0, Max: 0, HasMax: true})
		if got := m.Grow(1); got != -1 {
			t.Fatalf("(memory 0 0).Grow(1) = %d, want -1", got)
		}
		if got := m.Grow(0); got != 0 {
			t.Fatalf("(memory 0 0).Grow(0) = %d, want 0", got)
		}
	})
	t.Run("no declared max is capped only by the implementation", func(t *testing.T) {
		m := interp.NewMemory(wasm.Limits{Min: 0})
		if got := m.Grow(1); got != 0 {
			t.Fatalf("Grow(1) without max = %d, want 0", got)
		}
		if got := m.Grow(1 << 20); got != -1 {
			t.Fatalf("Grow past the implementation cap = %d, want -1", got)
		}
	})
}

// TestMemoryGrowMaxZeroInModule runs the same fix through actual wasm
// execution: memory.grow inside a module with (memory 0 0) reports -1.
func TestMemoryGrowMaxZeroInModule(t *testing.T) {
	b := builder.New()
	b.Memory(0) // builder.Memory declares min only; set a real max=0 below
	f := b.Func("grow", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0).Emit(wasm.Instr{Op: wasm.OpMemoryGrow})
	f.Done()
	m := b.Build()
	m.Memories[0] = wasm.Limits{Min: 0, Max: 0, HasMax: true}
	inst, err := interp.Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("grow", interp.I32(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := interp.AsI32(res[0]); got != -1 {
		t.Errorf("memory.grow on (memory 0 0) = %d, want -1", got)
	}
	if got := interp.AsI32(mustInvoke(t, inst, "grow", interp.I32(0))); got != 0 {
		t.Errorf("memory.grow(0) = %d, want 0", got)
	}
}

func mustInvoke(t *testing.T, inst *interp.Instance, name string, args ...interp.Value) interp.Value {
	t.Helper()
	res, err := inst.Invoke(name, args...)
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// TestMemoryOOBAfterFailedGrow: a failed grow leaves bounds checking intact.
func TestMemoryOOBAfterFailedGrow(t *testing.T) {
	b := builder.New()
	b.Memory(1)
	f := b.Func("oob", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0).Load(wasm.OpI32Load, 0)
	f.Done()
	m := b.Build()
	m.Memories[0] = wasm.Limits{Min: 1, Max: 1, HasMax: true}
	inst, err := interp.Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Memory.Grow(1); got != -1 {
		t.Fatalf("Grow(1) at max = %d, want -1", got)
	}
	_, err = inst.Invoke("oob", interp.I32(int32(wasm.PageSize-2)))
	if err == nil || !strings.Contains(err.Error(), interp.TrapOutOfBounds) {
		t.Errorf("expected out-of-bounds trap, got %v", err)
	}
}
