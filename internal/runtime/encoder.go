package runtime

// Record encoders: the stream backend of hook dispatch and the sibling of
// trampoline.go. Where a trampoline decodes a lowered hook-argument vector
// and calls analysis Go code, an encoder copies the same words — through the
// same hook plan — into one packed analysis.Event record and appends it to
// the session's Emitter. Everything static about a record (hook index, kind,
// constant slots, continuation count) is in the plan;
// the per-event path only copies words. compileEncoder builds one of four
// shapes: a single record (specialized by how many Vals slots come from
// lowered words), a record group (return, call_post, direct call_pre), an
// indirect call_pre group, and br_table.
//
// Encoders use the interpreter's zero-copy host-call convention
// (interp.HostFunc.Fast), as trampolines do: args is a read-only stack
// window of the hook's lowered arity, never retained, and failure is
// reported only by a trap panic — the hot loop has no error or length
// check. A stream session and a callback session with
// the same live hooks therefore have the same host shape and link one
// compile of the threaded code.
//
// Flush points, per the stream contract: batch-full (Emitter.emit),
// top-level call completion (the session installs Emitter.Flush as the
// instance's top-return hook, independent of which hooks are streamed),
// and explicit Emitter.Flush/Close.

import (
	"wasabi/internal/analysis"
	"wasabi/internal/interp"
)

// compileEncoder builds the record encoder of a live hook.
func (r *Runtime) compileEncoder(p *hookPlan) hookFn {
	em := r.emitter
	switch {
	case p.tmpl.Kind == analysis.KindBrTable:
		return r.brTableEncoder(p)
	case p.indirect:
		return func(inst *interp.Instance, args []interp.Value) {
			e := p.tmpl
			p.fill(&e, args)
			tblIdx := e.Aux
			e.Aux = uint32(int32(r.resolve(inst, tblIdx)))
			e.Vals[0] = uint64(tblIdx)
			p.emitGroup(em, e, args)
		}
	case p.group:
		return func(_ *interp.Instance, args []interp.Value) {
			e := p.tmpl
			p.fill(&e, args)
			p.emitGroup(em, e, args)
		}
	}
	switch p.n {
	case 0:
		return func(_ *interp.Instance, args []interp.Value) {
			e := p.tmpl
			p.fill(&e, args)
			em.emit(e)
		}
	case 1:
		return func(_ *interp.Instance, args []interp.Value) {
			e := p.tmpl
			p.fill(&e, args)
			e.Vals[0] = p.vals[0].raw(args)
			em.emit(e)
		}
	case 2:
		return func(_ *interp.Instance, args []interp.Value) {
			e := p.tmpl
			p.fill(&e, args)
			e.Vals[0] = p.vals[0].raw(args)
			e.Vals[1] = p.vals[1].raw(args)
			em.emit(e)
		}
	default:
		return func(_ *interp.Instance, args []interp.Value) {
			e := p.tmpl
			p.fill(&e, args)
			e.Vals[0] = p.vals[0].raw(args)
			e.Vals[1] = p.vals[1].raw(args)
			e.Vals[2] = p.vals[2].raw(args)
			em.emit(e)
		}
	}
}

// emitGroup emits e, whose Vals already hold what precedes p's value vector,
// together with the vector: it fills e from Vals[vecStart] on and spills the
// rest into continuation records, as one group that never straddles a batch
// boundary.
func (p *hookPlan) emitGroup(em *Emitter, e analysis.Event, args []interp.Value) {
	em.reserve(1 + p.conts)
	slot := p.vecStart
	for _, w := range p.vec {
		if slot == len(e.Vals) {
			em.emit(e)
			e = analysis.Event{Hook: analysis.EventCont, Kind: e.Kind, Func: e.Func, Instr: e.Instr}
			slot = 0
		}
		e.Vals[slot] = w.raw(args)
		slot++
	}
	em.emit(e)
}

// brTableEncoder replays the end records of the blocks the taken branch
// leaves (when end events are streamed) and then emits the br_table record
// itself (when br_table events are streamed) — the event order of the
// callback trampoline.
func (r *Runtime) brTableEncoder(p *hookPlan) hookFn {
	em := r.emitter
	emitEnds := r.streamCaps.Has(analysis.CapEnd)
	emitTable := r.streamCaps.Has(analysis.CapBrTable)
	return func(_ *interp.Instance, args []interp.Value) {
		info, taken := r.brTaken(p, args)
		if info == nil {
			panic(r.brTableTrap(p, args))
		}
		e := p.tmpl
		p.fill(&e, args)
		if emitEnds {
			for _, end := range taken.Ends {
				code := end.Kind.Code()
				em.emit(analysis.Event{
					Hook:  p.endHook[code],
					Kind:  analysis.KindEnd,
					Func:  e.Func,
					Instr: int32(end.End),
					Aux:   uint32(int32(end.Begin)),
					Vals:  [3]uint64{uint64(code)},
				})
			}
		}
		if emitTable {
			e.Vals[0] = p.vals[0].raw(args)
			em.emit(e)
		}
	}
}
