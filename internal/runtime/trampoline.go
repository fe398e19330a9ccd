package runtime

// Callback trampolines: the callback backend of hook dispatch. For each live
// hook, compileTrampoline wraps the analysis callback around the hook's plan
// once, at Imports() time, and returns a closure that already knows its
// callback, interned op name, block kind and lowered offsets (including the
// i64 lo/hi re-joins). There is one case per callback signature; kinds
// sharing a signature (nop/unreachable/start, const/drop, local/global,
// load/store, call_post/return) share the closure and differ only in their
// plans. args always holds the hook's lowered arity, so no trampoline checks
// its length: wasm code reaches a hook only through an import whose type
// Instantiate checked, and interp.Instance.Invoke checks the argument count
// of an embedder's direct call.
//
// Trampolines use the interpreter's zero-copy host-call convention
// (interp.HostFunc.Fast), as record encoders do: args is a read-only window
// aliasing the caller's operand stack, and failure (a br_table metadata
// index out of range) is a panic with an *interp.Trap, which the
// interpreter's invocation root recovers. Trampolines therefore never
// retain args; everything they hand to the analysis is either a scalar or a
// borrowed vector of the runtime's buffers (buffers.go: the call/return
// value vectors and br_table's resolved-target table) that is valid only
// for the duration of the callback — analyses use analysis.Values.Clone to
// retain one. Filling a reused buffer instead of allocating keeps
// slice-carrying hook dispatch at 0 allocs/op.

import (
	"wasabi/internal/analysis"
	"wasabi/internal/interp"
)

// hookFn is the compiled entry of one low-level hook, a trampoline or a
// record encoder; it matches interp.HostFunc.Fast.
type hookFn = func(inst *interp.Instance, args []interp.Value)

// nopHook is the shared entry of every hook the analysis does not observe.
func nopHook(*interp.Instance, []interp.Value) {}

// at is the location of instruction instr in loc's function.
func at(loc analysis.Location, instr int) analysis.Location {
	return analysis.Location{Func: loc.Func, Instr: instr}
}

// compileTrampoline builds the dispatch closure of a live hook.
func (r *Runtime) compileTrampoline(p *hookPlan) hookFn {
	if p.tmpl.Kind == analysis.KindBrTable {
		return r.brTableTrampoline(p)
	}
	// Every live kind but br_table has exactly one callback bit.
	switch cb := r.cbs.Of(p.live).(type) {
	case func(analysis.Location): // nop, unreachable, start
		return func(_ *interp.Instance, args []interp.Value) {
			cb(hookLoc(args))
		}
	case func(analysis.Location, bool): // if
		return func(_ *interp.Instance, args []interp.Value) {
			cb(hookLoc(args), uint32(args[p.aux]) != 0)
		}
	case func(analysis.Location, analysis.BranchTarget): // br
		return func(_ *interp.Instance, args []interp.Value) {
			loc := hookLoc(args)
			cb(loc, analysis.BranchTarget{Label: uint32(args[p.aux]), Location: at(loc, int(int32(uint32(args[p.vals[0].off]))))})
		}
	case func(analysis.Location, analysis.BranchTarget, bool): // br_if
		return func(_ *interp.Instance, args []interp.Value) {
			loc := hookLoc(args)
			cb(loc, analysis.BranchTarget{Label: uint32(args[p.vals[0].off]), Location: at(loc, int(int32(uint32(args[p.vals[1].off]))))},
				uint32(args[p.aux]) != 0)
		}
	case func(analysis.Location, analysis.BlockKind): // begin
		return func(_ *interp.Instance, args []interp.Value) {
			cb(hookLoc(args), p.block)
		}
	case func(analysis.Location, analysis.BlockKind, analysis.Location): // end
		return func(_ *interp.Instance, args []interp.Value) {
			loc := hookLoc(args)
			cb(loc, p.block, at(loc, int(int32(uint32(args[p.aux])))))
		}
	case func(analysis.Location, analysis.Value): // const, drop
		return func(_ *interp.Instance, args []interp.Value) {
			cb(hookLoc(args), p.vals[0].value(args))
		}
	case func(analysis.Location, bool, analysis.Value, analysis.Value): // select
		return func(_ *interp.Instance, args []interp.Value) {
			cb(hookLoc(args), uint32(args[p.aux]) != 0, p.vals[0].value(args), p.vals[1].value(args))
		}
	case func(analysis.Location, string, analysis.Value, analysis.Value): // unary
		return func(_ *interp.Instance, args []interp.Value) {
			cb(hookLoc(args), p.op, p.vals[0].value(args), p.vals[1].value(args))
		}
	case func(analysis.Location, string, analysis.Value, analysis.Value, analysis.Value): // binary
		return func(_ *interp.Instance, args []interp.Value) {
			cb(hookLoc(args), p.op, p.vals[0].value(args), p.vals[1].value(args), p.vals[2].value(args))
		}
	case func(analysis.Location, string, uint32, analysis.Value): // local, global
		return func(_ *interp.Instance, args []interp.Value) {
			cb(hookLoc(args), p.op, uint32(args[p.aux]), p.vals[0].value(args))
		}
	case func(analysis.Location, string, analysis.MemArg, analysis.Value): // load, store
		return func(_ *interp.Instance, args []interp.Value) {
			cb(hookLoc(args), p.op, analysis.MemArg{Addr: uint32(args[p.vals[0].off]), Offset: uint32(args[p.aux])},
				p.vals[1].value(args))
		}
	case func(analysis.Location, uint32): // memory_size
		return func(_ *interp.Instance, args []interp.Value) {
			cb(hookLoc(args), uint32(args[p.aux]))
		}
	case func(analysis.Location, uint32, uint32): // memory_grow
		return func(_ *interp.Instance, args []interp.Value) {
			cb(hookLoc(args), uint32(args[p.aux]), uint32(args[p.vals[0].off]))
		}
	case func(analysis.Location, int): // block_probe
		return func(_ *interp.Instance, args []interp.Value) {
			cb(hookLoc(args), int(int32(uint32(args[p.aux]))))
		}
	case func(analysis.Location, []analysis.Value): // call_post, return
		return func(_ *interp.Instance, args []interp.Value) {
			r.bufs.withValues(p.vec, args, func(vs []analysis.Value) {
				cb(hookLoc(args), vs)
			})
		}
	case func(analysis.Location, int, []analysis.Value, int64): // call_pre
		return func(inst *interp.Instance, args []interp.Value) {
			w := uint32(args[p.aux]) // the target function, or the table index of an indirect call
			target, tblIdx := int(int32(w)), int64(-1)
			if p.indirect {
				target, tblIdx = r.resolve(inst, w), int64(w)
			}
			r.bufs.withValues(p.vec, args, func(vs []analysis.Value) {
				cb(hookLoc(args), target, vs, tblIdx)
			})
		}
	}
	// Unreachable: every callback signature has a case above.
	return nopHook
}

// brTableTrampoline fires the end callbacks of the blocks the taken branch
// leaves, then the br_table callback with the borrowed resolved-target table.
func (r *Runtime) brTableTrampoline(p *hookPlan) hookFn {
	endCb, _ := r.cbs.Of(analysis.CapEnd).(func(analysis.Location, analysis.BlockKind, analysis.Location))
	tableCb, _ := r.cbs.Of(analysis.CapBrTable).(func(analysis.Location, []analysis.BranchTarget, analysis.BranchTarget, uint32))
	return func(_ *interp.Instance, args []interp.Value) {
		info, taken := r.brTaken(p, args)
		if info == nil {
			panic(r.brTableTrap(p, args))
		}
		loc := hookLoc(args)
		if endCb != nil {
			for _, e := range taken.Ends {
				endCb(at(loc, e.End), e.Kind, at(loc, e.Begin))
			}
		}
		if tableCb != nil {
			r.bufs.withTargets(info, loc.Func, func(ts []analysis.BranchTarget, deflt analysis.BranchTarget) {
				tableCb(loc, ts, deflt, uint32(args[p.aux]))
			})
		}
	}
}
