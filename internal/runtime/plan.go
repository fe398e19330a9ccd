package runtime

// Hook plans: everything about dispatching one generated hook that depends
// only on its analysis.EventSpec. NewShared derives one plan per spec, once per
// CompiledAnalysis; both dispatch backends — callback trampolines
// (trampoline.go) and event-record encoders (encoder.go) — are built from
// the plans, so a hook's lowering is written in one place and a session only
// wraps its callbacks or emitter around it.
//
// A hook's lowered payload maps onto its Event record uniformly: at most one
// payload value is carried in Aux (EventSpec.AuxValue), the others fill Vals
// in order (the table on analysis.Event). Trampolines read their callback arguments
// from the same lowered words.

import (
	"fmt"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

// word is one lowered payload value: its offset in the lowered argument
// vector and its logical type.
type word struct {
	off int
	t   wasm.ValType
}

// raw decodes the value's raw 64-bit representation, re-joining i64
// (lo, hi) halves.
func (w word) raw(args []interp.Value) uint64 {
	if w.t == wasm.I64 {
		return uint64(uint32(args[w.off+1]))<<32 | uint64(uint32(args[w.off]))
	}
	return args[w.off]
}

// value is raw with its type, as the callback API hands values out.
func (w word) value(args []interp.Value) analysis.Value {
	return analysis.Value{Type: w.t, Bits: w.raw(args)}
}

// hookPlan is the lowering of one analysis.EventSpec.
type hookPlan struct {
	// Read by every call of a compiled hook.
	tmpl    analysis.Event // Hook, Kind and the constant Vals slots
	aux     int            // lowered offset of the word carried in Aux
	auxMask uint32         // 0 when the record carries no Aux word
	n       int            // Vals slots filled from vals (single-record hooks)
	vals    [3]word

	// Call and return hooks: the value vector (call_pre's arguments,
	// call_post's and return's results) fills the primary record from
	// Vals[vecStart] on and then conts continuation records, 3 values each.
	group    bool
	indirect bool // call_pre through a table: Aux is the resolved callee
	vecStart int
	vec      []word
	conts    int

	name    string
	typ     wasm.FuncType
	live    analysis.Cap // the hook is live when the analysis has any of these
	op      string       // interned instruction name, read by op-carrying hooks
	block   analysis.BlockKind
	endHook [analysis.NumBlockKinds]uint16 // br_table: end hook per BlockKind.Code, or EventSynth
}

// newPlan derives the plan of spec, the hookIdx-th hook of its metadata.
// endHook maps block kind codes to the metadata's end hooks.
func newPlan(spec *analysis.EventSpec, hookIdx int, endHook [analysis.NumBlockKinds]uint16) hookPlan {
	p := hookPlan{
		tmpl:  analysis.Event{Hook: uint16(hookIdx), Kind: spec.Kind},
		name:  spec.Name,
		typ:   spec.WasmType(),
		op:    spec.OpName(),
		block: spec.Block,
		live:  spec.Kind.Callback(spec.Post),
	}
	// The lowered vector starts with the two location words; an i64 payload
	// value takes two words (lo, hi), any other one word.
	aux, off := spec.AuxValue(), 2
	var ws []word
	for i, t := range spec.Types {
		if i == aux {
			p.aux, p.auxMask = off, ^uint32(0)
		} else {
			ws = append(ws, word{off: off, t: t})
		}
		off++
		if t == wasm.I64 {
			off++
		}
	}

	switch spec.Kind {
	case analysis.KindCall, analysis.KindReturn:
		p.group, p.vec, p.conts = true, ws, spec.Conts()
		if spec.Kind == analysis.KindCall && !spec.Post {
			// Vals[0] is the table index as an i64: -1 for a direct call,
			// which the indirect encoder overwrites.
			p.indirect = spec.Indirect
			p.vecStart = 1
			p.tmpl.Vals[0] = ^uint64(0)
		}
		return p
	case analysis.KindBrTable:
		// Live for end callbacks too: the runtime half of the dynamic
		// block-nesting mechanism (paper §2.4.5) replays the end hooks of
		// the blocks the taken branch leaves.
		p.live |= analysis.CapEnd
		p.endHook = endHook
	}
	p.n = copy(p.vals[:], ws)
	if spec.Kind == analysis.KindEnd {
		// Vals[0] = block kind code, so end records decode without a spec,
		// like the end records a br_table replays.
		p.tmpl.Vals[0] = uint64(spec.Block.Code())
	}
	return p
}

// fill sets the location and Aux words of a record started from the
// template. (Filling in place spares the hot path a copy of the record.)
func (p *hookPlan) fill(e *analysis.Event, args []interp.Value) {
	e.Func = int32(uint32(args[0]))
	e.Instr = int32(uint32(args[1]))
	e.Aux = uint32(args[p.aux]) & p.auxMask
}

// hookLoc decodes the two location words every hook call starts with.
func hookLoc(args []interp.Value) analysis.Location {
	return analysis.Location{Func: int(int32(uint32(args[0]))), Instr: int(int32(uint32(args[1])))}
}

// brTaken looks up the metadata of the br_table a br_table hook call
// reports and the target its runtime index selects: which blocks the branch
// leaves is only known now (paper §2.4.5). info is nil when the metadata
// index is out of range, that is when module and metadata do not belong
// together; callers then trap with brTableTrap.
func (r *Runtime) brTaken(p *hookPlan, args []interp.Value) (info *core.BrTableInfo, taken *core.ResolvedTarget) {
	if metaIdx := uint32(args[p.vals[0].off]); int(metaIdx) < len(r.meta.BrTables) {
		info = &r.meta.BrTables[metaIdx]
		taken = &info.Default
		if idx := uint32(args[p.aux]); int(idx) < len(info.Targets) {
			taken = &info.Targets[idx]
		}
	}
	return info, taken
}

// brTableTrap reports the metadata index brTaken found out of range.
func (r *Runtime) brTableTrap(p *hookPlan, args []interp.Value) *interp.Trap {
	return &interp.Trap{
		Code: TrapInvalidMetadata,
		Info: fmt.Sprintf("br_table metadata index %d out of range (have %d) at %v",
			int32(uint32(args[p.vals[0].off])), len(r.meta.BrTables), hookLoc(args)),
	}
}

// resolve maps a runtime table index to the function it calls, in the
// original index space, or -1 (paper §2.3). inst is the instance making the
// call, which the interpreter passes to every hook; with several instances
// per session, each hook resolves against the instance that fired it.
func (r *Runtime) resolve(inst *interp.Instance, tblIdx uint32) int {
	if fidx := inst.ResolveTable(tblIdx); fidx >= 0 {
		return r.meta.OriginalFuncIdx(int(fidx))
	}
	return -1
}
