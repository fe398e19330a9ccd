package runtime

// Hook plans: everything about dispatching one generated hook that depends
// only on its core.HookSpec. NewShared derives one plan per spec, once per
// CompiledAnalysis; both dispatch backends — callback trampolines
// (trampoline.go) and event-record encoders (encoder.go) — are built from
// the plans, so a hook's lowering is written in one place and a session only
// wraps its callbacks or emitter around it.
//
// A hook's lowered payload maps onto its Event record uniformly: at most one
// payload value is carried in Aux (auxValue), the others fill Vals in order
// (the table on analysis.Event). Trampolines read their callback arguments
// from the same lowered words.

import (
	"fmt"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

// numCaps is the number of analysis.Cap bits: one per hook kind, plus the
// call_pre/call_post split.
const numCaps = analysis.NumKinds + 1

// kindCaps inverts analysis.Cap.HookSet: the capability bits whose callbacks
// observe each hook kind.
var kindCaps = func() (t [analysis.NumKinds]analysis.Cap) {
	for c := analysis.Cap(1); c < 1<<numCaps; c <<= 1 {
		for _, k := range c.HookSet().Kinds() {
			t[k] |= c
		}
	}
	return t
}()

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

// hookPlan is the lowering of one core.HookSpec.
type hookPlan struct {
	// Read by every call of a compiled hook.
	arity   int            // lowered words, including the two location words
	tmpl    analysis.Event // Hook, Kind, Pack and the constant Vals slots
	aux     int            // lowered offset of the word carried in Aux
	auxMask uint32         // 0 when the record carries no Aux word
	n       int            // Vals slots filled from vals (single-record hooks)
	vals    [3]word

	// Call and return hooks: the value vector (call_pre's arguments,
	// call_post's and return's results) fills the primary record from
	// Vals[vecStart] on and then continuation records, 3 values each.
	group     bool
	indirect  bool // call_pre through a table: Aux is the resolved callee
	vecStart  int
	vec       []word
	contPacks []uint8 // Pack byte of each continuation record

	name    string
	typ     wasm.FuncType
	live    analysis.Cap // the hook is live when the analysis has any of these
	op      string       // interned instruction name, read by op-carrying hooks
	block   analysis.BlockKind
	endHook [5]uint16 // br_table: end hook per BlockKind.Code, or EventSynth
}

// auxValue returns which payload value of a hook kind its record carries in
// Aux, or -1 for none.
func auxValue(spec *core.HookSpec) int {
	switch spec.Kind {
	case analysis.KindConst, analysis.KindDrop, analysis.KindUnary, analysis.KindBinary, analysis.KindReturn:
		return -1
	case analysis.KindCall:
		if spec.Post {
			return -1
		}
	case analysis.KindBrIf:
		return 2 // the condition; label and target fill Vals
	case analysis.KindBrTable:
		return 1 // the runtime index; the metadata index fills Vals[0]
	}
	return 0
}

// newPlan derives the plan of spec, the hookIdx-th hook of its metadata.
// endHook maps block kind codes to the metadata's end hooks.
func newPlan(spec *core.HookSpec, hookIdx int, endHook [5]uint16) hookPlan {
	lay := spec.Layout()
	p := hookPlan{
		arity: lay.Arity,
		tmpl:  analysis.Event{Hook: uint16(hookIdx), Kind: spec.Kind},
		name:  spec.Name,
		typ:   spec.WasmType(),
		op:    spec.OpName(),
		block: spec.Block,
	}
	if int(spec.Kind) < analysis.NumKinds {
		p.live = kindCaps[spec.Kind]
	}
	aux := auxValue(spec)
	var ws []word
	for i, t := range spec.Types {
		if i == aux {
			p.aux, p.auxMask = lay.Offs[i], ^uint32(0)
		} else {
			ws = append(ws, word{off: lay.Offs[i], t: t})
		}
	}

	switch spec.Kind {
	case analysis.KindCall, analysis.KindReturn:
		p.group, p.vec = true, ws
		var head []wasm.ValType
		switch {
		case spec.Kind == analysis.KindCall && spec.Post:
			p.live &= analysis.CapCallPost
		case spec.Kind == analysis.KindCall:
			// Vals[0] is the table index as an i64: -1 for a direct call,
			// which the indirect encoder overwrites.
			p.live &= analysis.CapCallPre
			p.indirect = spec.Indirect
			p.vecStart = 1
			p.tmpl.Vals[0] = ^uint64(0)
			head = []wasm.ValType{wasm.I64}
		}
		n := min(len(ws), len(p.tmpl.Vals)-p.vecStart)
		p.tmpl.Pack = packOf(ws[:n], head...)
		for rest := ws[n:]; len(rest) > 0; rest = rest[min(len(rest), 3):] {
			p.contPacks = append(p.contPacks, packOf(rest[:min(len(rest), 3)]))
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
	p.tmpl.Pack = packOf(ws[:p.n])
	if spec.Kind == analysis.KindEnd {
		// Vals[0] = block kind code, so end records decode without a spec,
		// like the end records a br_table replays.
		p.tmpl.Pack = analysis.PackSlots(wasm.I32)
		p.tmpl.Vals[0] = uint64(spec.Block.Code())
	}
	return p
}

// packOf returns the Pack byte of a record whose Vals hold head, then ws.
func packOf(ws []word, head ...wasm.ValType) uint8 {
	for _, w := range ws {
		head = append(head, w.t)
	}
	return analysis.PackSlots(head...)
}

// fill sets the location and Aux words of a record started from the
// template. (Filling in place spares the hot path a copy of the record.)
func (p *hookPlan) fill(e *analysis.Event, args []interp.Value) {
	e.Func = int32(uint32(args[0]))
	e.Instr = int32(uint32(args[1]))
	e.Aux = uint32(args[p.aux]) & p.auxMask
}

// arityTrap reports a hook call whose lowered argument vector does not match
// the spec — possible only when an embedder corrupts or mixes up Metadata,
// or invokes a hook import directly with the wrong arguments. It surfaces as
// a trap (returned by trampolines, panicked by encoders), never as an
// index-out-of-range panic of the host process.
func (p *hookPlan) arityTrap(got int) *interp.Trap {
	return &interp.Trap{
		Code: TrapInvalidMetadata,
		Info: fmt.Sprintf("hook %s called with %d lowered args, want %d", p.name, got, p.arity),
	}
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
// original index space, or -1 (paper §2.3). The instance making the call is
// preferred over the bound one, so hooks that fire during the start function
// resolve before BindInstance has run.
func (r *Runtime) resolve(inst *interp.Instance, tblIdx uint32) int {
	if inst == nil {
		inst = r.inst
	}
	if inst != nil {
		if fidx := inst.ResolveTable(tblIdx); fidx >= 0 {
			return r.meta.OriginalFuncIdx(int(fidx))
		}
	}
	return -1
}
