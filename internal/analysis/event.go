package analysis

// The event-stream surface: hook events as packed, fixed-width records
// instead of synchronous callbacks. Where the callback API dispatches every
// low-level hook straight into analysis Go code on the program's hot path,
// the stream API appends one Event record per hook call to a per-session
// batch buffer and hands whole batches to the consumer — decoupling event
// production from analysis cost (and enabling off-thread consumers).
//
// Event is deliberately dumb: 40 bytes, pointer-free, meaningful only
// together with the instrumentation's hook table. The EventTable (the one
// core.Metadata embeds) is the decode side: it maps Event.Hook back to the
// hook's spec — kind, opcode, block kind and payload types — the same spec
// the per-hook trampolines are compiled from on the callback path.

import "wasabi/internal/wasm"

// EventCont marks a continuation record: when an event's logical value
// vector does not fit the primary record (a call with many arguments), the
// encoder emits the primary record followed by continuation records carrying
// up to 3 further values each. Continuations always directly follow their
// primary record within the same batch.
const EventCont = uint16(0xFFFF)

// EventSynth marks a synthesized record with no backing hook spec: the end
// records replayed by a br_table branch when the module was instrumented
// without end hooks (the replay data lives in the br_table metadata, so the
// callback path fires those ends too). Synthesized records are fully
// self-describing — end records carry their block kind as a code in
// Vals[0] — so consumers must decode them by Kind, not through
// EventTable.Spec.
const EventSynth = uint16(0xFFFE)

// Event is one packed hook-event record: 16 bytes of header plus three
// 8-byte value slots. Records are fixed-width so a batch is a flat
// []Event with no per-event allocation or pointer chasing.
//
// Which fields are meaningful depends on Kind:
//
//	Kind          Aux                  Vals[0]          Vals[1]      Vals[2]
//	nop/unreach/
//	start/begin   —                    —                —            —
//	if            condition (0/1)      —                —            —
//	br            raw label            target instr     —            —
//	br_if         condition (0/1)      raw label        target instr —
//	br_table      runtime index        metadata index   —            —
//	end           begin instr (int32)  block kind code  —            —
//	const/drop    —                    value            —            —
//	select        condition (0/1)      first            second       —
//	unary         —                    input            result       —
//	binary        —                    first            second       result
//	local/global  variable index       value            —            —
//	load/store    static offset        address          value        —
//	memory_size   current pages        —                —            —
//	memory_grow   delta pages          previous pages   —            —
//	block_probe   block end instr      —                —            —
//	call (pre)    target func (int32)  table idx (i64,  arg0         arg1
//	                                   -1 if direct)    (rest in continuations)
//	call (post)/
//	return        —                    result0          result1      result2
//
// Value slots hold the raw 64-bit representation of a wasm value (i32/f32
// zero-extended, floats as IEEE bits — the same representation as
// Value.Bits). A record carries no types: they are static per hook and come
// from the EventTable (EventSpec.AuxValue and EventSpec.Conts state the rest
// of the layout). Locations are always in the original (uninstrumented)
// index space, like the callback API's Location. Byte 3 is reserved: every
// record is built from a literal, which zeroes it, and copied whole, so a
// segment file's raw record bytes hold a zero there.
type Event struct {
	Hook  uint16   // index into the instrumentation's hook table; EventCont for continuations
	Kind  HookKind // high-level hook kind (copied from the spec; set on continuations too)
	_     uint8    // reserved, zero
	Func  int32    // location: original function index
	Instr int32    // location: instruction index (-1 for function-level events)
	Aux   uint32   // kind-specific scalar, see the table above
	Vals  [3]uint64
}

// Loc returns the event's location.
func (e *Event) Loc() Location { return Location{Func: int(e.Func), Instr: int(e.Instr)} }

// Block kind codes, carried by end records so they decode without a spec
// lookup (required for the synthesized br_table end replays, see
// EventSynth).
var blockKindCodes = [...]BlockKind{BlockFunction, BlockBlock, BlockLoop, BlockIf, BlockElse}

// NumBlockKinds is the number of block kinds, whose codes are dense in
// [0, NumBlockKinds).
const NumBlockKinds = len(blockKindCodes)

// Code returns the stable numeric code of a block kind: its index in
// blockKindCodes (a switch, since end-record encoding calls it per event).
func (k BlockKind) Code() uint32 {
	switch k {
	case BlockBlock:
		return 1
	case BlockLoop:
		return 2
	case BlockIf:
		return 3
	case BlockElse:
		return 4
	}
	return 0
}

// BlockKindOf is the inverse of BlockKind.Code.
func BlockKindOf(code uint32) BlockKind {
	if int(code) < len(blockKindCodes) {
		return blockKindCodes[code]
	}
	return BlockFunction
}

// EventSpec describes one generated low-level hook, from the instrumenter
// that generates it to the consumer that decodes its records: its import
// name, the high-level hook kind it dispatches to, the opcode of hooks
// monomorphized per instruction (binary_i32.add), the block kind of
// begin/end hooks, and the logical payload types that follow the two i32
// location parameters. Indexed by Event.Hook in an EventTable; the JSON
// tags are the instrumentation metadata's.
type EventSpec struct {
	Name     string         `json:"name"`
	Kind     HookKind       `json:"kind"`
	Op       wasm.Opcode    `json:"op,omitempty"`
	Block    BlockKind      `json:"block,omitempty"`
	Types    []wasm.ValType `json:"types,omitempty"`
	Indirect bool           `json:"indirect,omitempty"` // call_pre through a table
	Post     bool           `json:"post,omitempty"`     // call_post (vs call_pre) for KindCall
}

// WasmType returns the lowered import signature of the hook: two i32
// location parameters followed by the lowered payload, no results. i32, f32
// and f64 pass through; i64 is split into two i32 halves (lo, hi) because
// the host language of the paper (JavaScript) cannot represent 64-bit
// integers (paper §2.4.6).
func (s *EventSpec) WasmType() wasm.FuncType {
	params := []wasm.ValType{wasm.I32, wasm.I32}
	for _, t := range s.Types {
		if t == wasm.I64 {
			params = append(params, wasm.I32, wasm.I32)
		} else {
			params = append(params, t)
		}
	}
	return wasm.FuncType{Params: params}
}

// OpName returns the instruction name of op-carrying hooks (unary, binary,
// load, store, local, global), or "" when Op is 0. A known opcode's name is
// interned: its string header points at the opcode name table, so keeping
// it costs nothing per event.
func (s *EventSpec) OpName() string {
	if s.Op == 0 {
		return ""
	}
	return s.Op.String()
}

// ValueTypes returns the types of the hook's logical value vector (call
// arguments or call/return results) for the vector-carrying hooks.
func (s *EventSpec) ValueTypes() []wasm.ValType {
	if s.Kind == KindCall && !s.Post {
		return s.Types[1:] // Types[0] is the i32 target / table index
	}
	return s.Types
}

// EventTable maps Event.Hook indices back to their specs. It is immutable
// and shared by every stream of one compiled instrumentation.
//
// The instrumenter's table (core.Metadata embeds it) also carries what only
// callbacks receive: the br_table records a br_table event's metadata index
// (Vals[0]) selects, and the module information. A table read back from a
// segment file has neither (nil BrTables and Info).
type EventTable struct {
	Specs    []EventSpec   `json:"hooks"`
	BrTables []BrTableInfo `json:"brTables,omitempty"`
	Info     *ModuleInfo   `json:"-"`
}

// Spec returns the spec of an event record. Not valid for EventCont or
// EventSynth records, which have no hook-table entry (synthesized end
// records are self-describing: Kind plus the block kind code in Vals[0]).
func (t *EventTable) Spec(e *Event) *EventSpec { return &t.Specs[e.Hook] }

// AppendValues decodes the logical value vector of the vector-carrying event
// at batch[i] (call_pre arguments, call_post/return results), reading the
// primary record and any continuation records that follow it, and appends
// the typed values to dst. It returns the extended slice and the index of
// the first record after the event. For any other event kind it appends
// nothing and returns i+1.
func (t *EventTable) AppendValues(dst []Value, batch []Event, i int) ([]Value, int) {
	e := &batch[i]
	spec := t.Spec(e)
	ts := spec.ValueTypes()
	i++
	if spec.Kind != KindCall && spec.Kind != KindReturn {
		return dst, i
	}
	// Inline slots of the primary record: call_pre holds the table index in
	// Vals[0], so its arguments start at slot 1.
	slot, rec := 0, e
	if spec.Kind == KindCall && !spec.Post {
		slot = 1
	}
	for _, vt := range ts {
		if slot == len(rec.Vals) {
			rec, slot = &batch[i], 0 // continuation records directly follow
			i++
		}
		dst = append(dst, Value{Type: vt, Bits: rec.Vals[slot]})
		slot++
	}
	return dst, i
}

// Next returns the index of the first record after the event at batch[i],
// skipping its continuation records.
func (t *EventTable) Next(batch []Event, i int) int {
	for i++; i < len(batch) && batch[i].Hook == EventCont; i++ {
	}
	return i
}

// EventSink consumes batches of hook-event records. Batches are BORROWED:
// the slice (and every record in it) is valid only until the consumer asks
// for the next batch — the same buffer is reused for later events. A sink
// that wants to retain records must copy them.
type EventSink interface {
	Events(batch []Event)
}

// EventStreamer is implemented by stream-native analyses: instead of (or in
// addition to) the callback hook interfaces, they declare which event
// classes they consume. Session.Stream uses StreamCaps to decide which
// hooks get record encoders; CompiledAnalysis.NewSession accepts an
// analysis whose only capabilities are stream capabilities.
type EventStreamer interface {
	StreamCaps() Cap
}

// EventTableReceiver is implemented by stream consumers that want the
// decode table before events start flowing (the stream-side analogue of
// ModuleInfoReceiver).
type EventTableReceiver interface {
	SetEventTable(t *EventTable)
}
