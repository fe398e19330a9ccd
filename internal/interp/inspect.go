package interp

import (
	"fmt"

	"wasabi/internal/wasm"
)

// StackHighWater compiles every defined function of m and returns the compile
// pass's operand-stack high-water mark per defined function — the buffer
// size exec allocates (see exec.go). Guard and fusion settings do not move
// the mark; a host shape does, where it lets the pass elide calls to no-op
// hooks together with their argument pushes. StackHighWater compiles
// without a host shape, so its marks are those of a module whose imports
// all run. It is the one source of operand-stack heights: `wasabi -inspect`
// prints its numbers in the maxstack column.
func StackHighWater(m *wasm.Module) ([]int, error) {
	ix := wasm.NewIndex(m)
	c := &compiler{ix: ix}
	out := make([]int, len(m.Funcs))
	for di := range m.Funcs {
		f := &m.Funcs[di]
		if int(f.TypeIdx) >= len(m.Types) {
			return nil, fmt.Errorf("interp: func %d: type index %d out of range", ix.NumImportedFuncs()+di, f.TypeIdx)
		}
		if err := c.lower(m.Types[f.TypeIdx], f); err != nil {
			return nil, fmt.Errorf("interp: func %d: %w", ix.NumImportedFuncs()+di, err)
		}
		out[di] = c.maxStack
	}
	return out, nil
}
