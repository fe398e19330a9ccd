package runtime

// Borrowed-buffer machinery for the slice-carrying hooks (call_pre args,
// call_post/return results, br_table's resolved-target table). Instead of
// allocating a fresh vector per hook call, the trampolines fill a buffer the
// session's runtime owns, hand it to the analysis for the duration of the
// callback, and release it. The explicit ownership contract
// (analysis.Values: borrowed, Clone to retain) is what makes the reuse
// sound.

import (
	"wasabi/internal/analysis"
	"wasabi/internal/failpoint"
	"wasabi/internal/interp"
)

// buffers holds one runtime's borrowed hook vectors: one value buffer and
// one target buffer per dispatch depth. A session runs on one goroutine at
// a time, so no pool is needed; a callback that re-enters wasm dispatches
// its hooks one level deeper, so it never overwrites a vector its caller
// still holds. Each level is released as its dispatch unwinds, by return or
// by trap, so a trapping callback leaks none.
type buffers struct {
	depth int
	vals  [][]analysis.Value
	ts    [][]analysis.BranchTarget
}

// push claims the next level and returns its index; pop releases it.
func (b *buffers) push() int {
	if b.depth == len(b.vals) {
		b.vals, b.ts = append(b.vals, nil), append(b.ts, nil)
	}
	b.depth++
	return b.depth - 1
}

func (b *buffers) pop() { b.depth-- }

// withValues is the borrowed-buffer protocol every value-carrying
// trampoline goes through: decode the value vector into this level's
// buffer, hand it to dispatch for the duration of the call, release the
// level. An empty vector dispatches nil without borrowing. The dispatch
// closure must not escape (that would re-introduce a per-call allocation —
// the zero-alloc guard tests watch this).
func (b *buffers) withValues(vec []word, args []interp.Value, dispatch func(vs []analysis.Value)) {
	if len(vec) == 0 {
		dispatch(nil)
		return
	}
	if failpoint.Enabled(failpoint.ValuePoolGet) {
		// This seam is inside hook dispatch, which has no error return: the
		// injected fault panics and is contained into a typed *RuntimeFault
		// by the invocation root (Instance.call), like any host-side panic.
		panic(&failpoint.InjectedError{Point: failpoint.ValuePoolGet})
	}
	d := b.push()
	defer b.pop()
	vs := b.vals[d][:0]
	for _, w := range vec {
		vs = append(vs, w.value(args))
	}
	b.vals[d] = vs
	dispatch(vs)
}

// withTargets hands dispatch the resolved-target table and default target
// of the br_table info describes, in function fn, in this level's buffer.
func (b *buffers) withTargets(info *analysis.BrTableInfo, fn int, dispatch func(ts []analysis.BranchTarget, deflt analysis.BranchTarget)) {
	d := b.push()
	defer b.pop()
	ts, deflt := info.Resolve(b.ts[d], fn)
	b.ts[d] = ts
	dispatch(ts, deflt)
}
