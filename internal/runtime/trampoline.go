package runtime

// Callback trampolines: the callback backend of hook dispatch. For each live
// hook, compileTrampoline wraps the analysis callback around the hook's plan
// once, at Imports() time, and returns a closure that already knows its
// callback, interned op name, block kind, lowered offsets (including the
// i64 lo/hi re-joins) and exact arity. There is one case per callback
// signature; kinds sharing a signature (nop/unreachable/start, const/drop,
// local/global, load/store, call_post/return) share the closure and differ
// only in their plans.
//
// Trampolines use the interpreter's zero-copy host-call convention
// (interp.HostFunc.Fast): args is a read-only window aliasing the caller's
// operand stack. Trampolines therefore never retain args; everything they
// hand to the analysis is either a scalar or a borrowed, engine-pooled
// vector (the call/return value vectors and br_table's resolved-target
// table) that is valid only for the duration of the callback — analyses use
// analysis.Values.Clone to retain one. Filling a pooled buffer instead of
// allocating keeps slice-carrying hook dispatch at 0 allocs/op.

import (
	"wasabi/internal/analysis"
	"wasabi/internal/interp"
)

// hookFn is the compiled fast-path entry of one low-level hook; it matches
// interp.HostFunc.Fast.
type hookFn = func(inst *interp.Instance, args []interp.Value) error

// nopHook is the shared entry of every hook the analysis does not observe.
func nopHook(*interp.Instance, []interp.Value) error { return nil }

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
	switch cb := r.cbs[capIndex(p.live)].(type) {
	case func(analysis.Location): // nop, unreachable, start
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			cb(hookLoc(args))
			return nil
		}
	case func(analysis.Location, bool): // if
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			cb(hookLoc(args), uint32(args[p.aux]) != 0)
			return nil
		}
	case func(analysis.Location, analysis.BranchTarget): // br
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			loc := hookLoc(args)
			cb(loc, analysis.BranchTarget{Label: uint32(args[p.aux]), Location: at(loc, int(int32(uint32(args[p.vals[0].off]))))})
			return nil
		}
	case func(analysis.Location, analysis.BranchTarget, bool): // br_if
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			loc := hookLoc(args)
			cb(loc, analysis.BranchTarget{Label: uint32(args[p.vals[0].off]), Location: at(loc, int(int32(uint32(args[p.vals[1].off]))))},
				uint32(args[p.aux]) != 0)
			return nil
		}
	case func(analysis.Location, analysis.BlockKind): // begin
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			cb(hookLoc(args), p.block)
			return nil
		}
	case func(analysis.Location, analysis.BlockKind, analysis.Location): // end
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			loc := hookLoc(args)
			cb(loc, p.block, at(loc, int(int32(uint32(args[p.aux])))))
			return nil
		}
	case func(analysis.Location, analysis.Value): // const, drop
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			cb(hookLoc(args), p.vals[0].value(args))
			return nil
		}
	case func(analysis.Location, bool, analysis.Value, analysis.Value): // select
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			cb(hookLoc(args), uint32(args[p.aux]) != 0, p.vals[0].value(args), p.vals[1].value(args))
			return nil
		}
	case func(analysis.Location, string, analysis.Value, analysis.Value): // unary
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			cb(hookLoc(args), p.op, p.vals[0].value(args), p.vals[1].value(args))
			return nil
		}
	case func(analysis.Location, string, analysis.Value, analysis.Value, analysis.Value): // binary
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			cb(hookLoc(args), p.op, p.vals[0].value(args), p.vals[1].value(args), p.vals[2].value(args))
			return nil
		}
	case func(analysis.Location, string, uint32, analysis.Value): // local, global
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			cb(hookLoc(args), p.op, uint32(args[p.aux]), p.vals[0].value(args))
			return nil
		}
	case func(analysis.Location, string, analysis.MemArg, analysis.Value): // load, store
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			cb(hookLoc(args), p.op, analysis.MemArg{Addr: uint32(args[p.vals[0].off]), Offset: uint32(args[p.aux])},
				p.vals[1].value(args))
			return nil
		}
	case func(analysis.Location, uint32): // memory_size
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			cb(hookLoc(args), uint32(args[p.aux]))
			return nil
		}
	case func(analysis.Location, uint32, uint32): // memory_grow
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			cb(hookLoc(args), uint32(args[p.aux]), uint32(args[p.vals[0].off]))
			return nil
		}
	case func(analysis.Location, int): // block_probe
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			cb(hookLoc(args), int(int32(uint32(args[p.aux]))))
			return nil
		}
	case func(analysis.Location, []analysis.Value): // call_post, return
		pool := r.shared.Pool
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			borrowValues(pool, p.vec, args, func(vs []analysis.Value) {
				cb(hookLoc(args), vs)
			})
			return nil
		}
	case func(analysis.Location, int, []analysis.Value, int64): // call_pre
		pool := r.shared.Pool
		return func(inst *interp.Instance, args []interp.Value) error {
			if len(args) != p.arity {
				return p.arityTrap(len(args))
			}
			w := uint32(args[p.aux]) // the target function, or the table index of an indirect call
			target, tblIdx := int(int32(w)), int64(-1)
			if p.indirect {
				target, tblIdx = r.resolve(inst, w), int64(w)
			}
			borrowValues(pool, p.vec, args, func(vs []analysis.Value) {
				cb(hookLoc(args), target, vs, tblIdx)
			})
			return nil
		}
	}
	// Unreachable: every callback signature has a case above.
	return nopHook
}

// borrowValues is the single implementation of the borrowed-buffer checkout
// protocol every slice-carrying trampoline goes through: decode the value
// vector into a pooled buffer, hand it to dispatch for the duration of the
// call, put it back. An empty vector dispatches nil without touching the
// pool. The dispatch closure must not escape (that would re-introduce a
// per-call allocation — the zero-alloc guard test watches this).
func borrowValues(pool *ValuePool, vec []word, args []interp.Value, dispatch func(vs []analysis.Value)) {
	if len(vec) == 0 {
		dispatch(nil)
		return
	}
	buf := pool.getValues(len(vec))
	for i, w := range vec {
		buf.vs[i] = w.value(args)
	}
	dispatch(buf.vs)
	pool.putValues(buf)
}

// brTableTrampoline fires the end callbacks of the blocks the taken branch
// leaves, then the br_table callback with the borrowed resolved-target table.
func (r *Runtime) brTableTrampoline(p *hookPlan) hookFn {
	endCb, _ := r.cbs[capIndex(analysis.CapEnd)].(func(analysis.Location, analysis.BlockKind, analysis.Location))
	tableCb, _ := r.cbs[capIndex(analysis.CapBrTable)].(func(analysis.Location, []analysis.BranchTarget, analysis.BranchTarget, uint32))
	pool := r.shared.Pool
	return func(_ *interp.Instance, args []interp.Value) error {
		if len(args) != p.arity {
			return p.arityTrap(len(args))
		}
		info, taken := r.brTaken(p, args)
		if info == nil {
			return r.brTableTrap(p, args)
		}
		loc := hookLoc(args)
		if endCb != nil {
			for _, e := range taken.Ends {
				endCb(at(loc, e.End), e.Kind, at(loc, e.Begin))
			}
		}
		if tableCb != nil {
			buf := pool.getTargets(len(info.Targets))
			for i, t := range info.Targets {
				buf.ts[i] = analysis.BranchTarget{Label: t.Label, Location: at(loc, t.Instr)}
			}
			deflt := analysis.BranchTarget{Label: info.Default.Label, Location: at(loc, info.Default.Instr)}
			tableCb(loc, buf.ts, deflt, uint32(args[p.aux]))
			pool.putTargets(buf)
		}
		return nil
	}
}
