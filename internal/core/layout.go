package core

import "wasabi/internal/wasm"

// ArgLayout is the precomputed shape of one hook's lowered argument vector:
// the total lowered word count (including the two i32 location words every
// hook receives first) and, for each logical payload value in HookSpec.Types,
// its word offset within the vector. i64 payload values occupy two words
// (lo at Offs[i], hi at Offs[i]+1, paper §2.4.6); all other types one.
//
// The runtime derives each hook's dispatch plan from it once per compiled
// instrumentation, so the per-call fast path re-joins i64 halves with
// precomputed offsets instead of walking the vector through an argReader.
type ArgLayout struct {
	Arity int   // lowered words, including the two location words
	Offs  []int // lowered word offset of each HookSpec.Types entry
}

// Layout computes the lowered argument layout of the hook. The result is
// freshly allocated; callers bind it once, not per call.
func (s *HookSpec) Layout() ArgLayout {
	offs := make([]int, len(s.Types))
	n := 2 // the two location words
	for i, t := range s.Types {
		offs[i] = n
		if t == wasm.I64 {
			n += 2
		} else {
			n++
		}
	}
	return ArgLayout{Arity: n, Offs: offs}
}

// OpName returns the interned instruction name of op-carrying hooks (unary,
// binary, load, store, local, global). The returned string header points at
// the opcode name table, so keeping it in a hook plan costs nothing per call.
func (s *HookSpec) OpName() string { return s.Op.String() }
