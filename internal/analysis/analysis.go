// Package analysis defines the high-level Wasabi analysis API (paper §2.3,
// Table 2). An analysis is any Go value implementing a subset of the hook
// interfaces below; the instrumenter inspects which interfaces are
// implemented and selectively instruments only the matching instruction
// classes (paper §2.4.2).
//
// The API preserves the paper's design properties: full instruction
// coverage, grouping of related instructions into 23 hooks, pre-computed
// information (resolved branch targets, resolved indirect-call targets), and
// faithful type mappings (i64 values cross the host boundary as two i32
// halves and are re-joined into Go int64, playing the role of long.js).
package analysis

import (
	"fmt"

	"wasabi/internal/wasm"
)

// Location identifies an instruction: the function index (in the original,
// uninstrumented index space) and the instruction index within that
// function's body. Instr is -1 for function-level locations (the implicit
// function block).
type Location struct {
	Func  int `json:"func"`
	Instr int `json:"instr"`
}

func (l Location) String() string { return fmt.Sprintf("%d:%d", l.Func, l.Instr) }

// Value is a typed WebAssembly value as seen by an analysis.
type Value struct {
	Type wasm.ValType
	Bits uint64 // raw representation: i32 zero-extended, floats as IEEE bits
}

// I32V constructs an i32 Value.
func I32V(v int32) Value { return Value{Type: wasm.I32, Bits: uint64(uint32(v))} }

// I64V constructs an i64 Value.
func I64V(v int64) Value { return Value{Type: wasm.I64, Bits: uint64(v)} }

// I32 extracts the i32 payload.
func (v Value) I32() int32 { return int32(uint32(v.Bits)) }

// I64 extracts the i64 payload.
func (v Value) I64() int64 { return int64(v.Bits) }

// F32 extracts the f32 payload.
func (v Value) F32() float32 { return f32frombits(uint32(v.Bits)) }

// F64 extracts the f64 payload.
func (v Value) F64() float64 { return f64frombits(v.Bits) }

func (v Value) String() string {
	switch v.Type {
	case wasm.I32:
		return fmt.Sprintf("%d:i32", v.I32())
	case wasm.I64:
		return fmt.Sprintf("%d:i64", v.I64())
	case wasm.F32:
		return fmt.Sprintf("%v:f32", v.F32())
	default:
		return fmt.Sprintf("%v:f64", v.F64())
	}
}

// Values is a vector of hook values. The value vectors handed to the
// call/return hooks (CallPre args, CallPost and Return results) are BORROWED:
// they alias a buffer of the session (or of the record decoder) that is
// valid only for the duration of the hook call and is reused by later hook
// calls. An analysis that wants to keep a vector past its own return must
// copy it, e.g. with Values(args).Clone(). The same rule applies to the
// resolved-target table of the BrTable hook (copy with
// BranchTargets(table).Clone()). Scalar hook arguments (Location, Value,
// MemArg, ...) are plain copies and may always be kept.
type Values []Value

// Clone returns a freshly allocated copy the analysis owns and may retain.
func (vs Values) Clone() Values {
	if vs == nil {
		return nil
	}
	return append(make(Values, 0, len(vs)), vs...)
}

// BranchTargets is the borrowed resolved-target table of the BrTable hook;
// like Values it is valid only for the duration of the hook call.
type BranchTargets []BranchTarget

// Clone returns a freshly allocated copy the analysis owns and may retain.
func (ts BranchTargets) Clone() BranchTargets {
	if ts == nil {
		return nil
	}
	return append(make(BranchTargets, 0, len(ts)), ts...)
}

// MemArg describes one memory access: the dynamic address operand and the
// static offset immediate (effective address = Addr + Offset).
type MemArg struct {
	Addr   uint32
	Offset uint32
}

// EffAddr returns the effective address of the access.
func (m MemArg) EffAddr() uint64 { return uint64(m.Addr) + uint64(m.Offset) }

// BranchTarget pairs the raw relative label of a branch with the statically
// resolved absolute location of the next instruction executed if the branch
// is taken (paper §2.4.4).
type BranchTarget struct {
	Label    uint32
	Location Location
}

// EndInfo describes one block "traversed" by a branch: the runtime must
// report an end hook for it (paper §2.4.5).
type EndInfo struct {
	Kind  BlockKind `json:"kind"`
	End   int       `json:"end"`   // instruction index of the block's end
	Begin int       `json:"begin"` // instruction index of the block's begin (-1 for function)
}

// ResolvedTarget is a statically resolved branch destination.
type ResolvedTarget struct {
	Label uint32    `json:"label"` // raw relative label
	Instr int       `json:"instr"` // absolute instruction index of the next instruction if taken
	Ends  []EndInfo `json:"ends"`  // blocks left when this branch is taken
}

// BrTableInfo is the instrumentation-time record for one br_table
// instruction. Which entry is taken — and therefore which blocks are left —
// is only known at runtime, so the low-level br_table hook receives an index
// into this table and the runtime selects the entry (paper §2.4.5).
type BrTableInfo struct {
	Loc     Location         `json:"loc"`
	Targets []ResolvedTarget `json:"targets"`
	Default ResolvedTarget   `json:"default"`
}

// Resolve fills dst (reused, grown as needed) with the BrTable hook's
// resolved-target table for the br_table in function fn, and returns it
// with the default target.
func (b *BrTableInfo) Resolve(dst []BranchTarget, fn int) ([]BranchTarget, BranchTarget) {
	dst = dst[:0]
	for _, t := range b.Targets {
		dst = append(dst, BranchTarget{Label: t.Label, Location: Location{Func: fn, Instr: t.Instr}})
	}
	return dst, BranchTarget{Label: b.Default.Label, Location: Location{Func: fn, Instr: b.Default.Instr}}
}

// BlockKind names the five kinds of blocks observed by begin/end hooks.
type BlockKind string

const (
	BlockFunction BlockKind = "function"
	BlockBlock    BlockKind = "block"
	BlockLoop     BlockKind = "loop"
	BlockIf       BlockKind = "if"
	BlockElse     BlockKind = "else"
)

// ModuleInfo gives analyses static information about the analyzed module
// (the paper's Wasabi.module.info).
type ModuleInfo struct {
	FuncTypes        []wasm.FuncType
	FuncNames        []string
	NumImportedFuncs int
	NumGlobals       int
	Exports          map[string]uint32 // exported function name → index
	Start            int               // start function index, -1 if none
}

// FuncName returns the name of function idx, or a numeric placeholder.
func (mi *ModuleInfo) FuncName(idx int) string {
	if idx >= 0 && idx < len(mi.FuncNames) && mi.FuncNames[idx] != "" {
		return mi.FuncNames[idx]
	}
	return fmt.Sprintf("func%d", idx)
}

// The hook interfaces. An analysis implements any subset; each corresponds
// to one high-level hook of Table 2 in the paper.

// ModuleInfoReceiver is implemented by analyses that want static module
// information before execution starts.
type ModuleInfoReceiver interface {
	SetModuleInfo(info *ModuleInfo)
}

// NopHooker observes nop instructions.
type NopHooker interface{ Nop(loc Location) }

// UnreachableHooker observes unreachable instructions (before the trap).
type UnreachableHooker interface{ Unreachable(loc Location) }

// IfHooker observes the condition of if instructions.
type IfHooker interface{ If(loc Location, cond bool) }

// BrHooker observes unconditional branches.
type BrHooker interface {
	Br(loc Location, target BranchTarget)
}

// BrIfHooker observes conditional branches (taken or not).
type BrIfHooker interface {
	BrIf(loc Location, target BranchTarget, cond bool)
}

// BrTableHooker observes multi-way branches. table lists the resolved
// targets, deflt is the default target, and idx is the runtime index. table
// is borrowed: valid only during the hook call,
// BranchTargets(table).Clone() to retain.
type BrTableHooker interface {
	BrTable(loc Location, table []BranchTarget, deflt BranchTarget, idx uint32)
}

// BeginHooker observes block entries (function, block, loop, if, else). For
// loops it fires once per iteration.
type BeginHooker interface {
	Begin(loc Location, kind BlockKind)
}

// EndHooker observes block exits, including blocks "traversed" by branches
// and returns (paper §2.4.5).
type EndHooker interface {
	End(loc Location, kind BlockKind, begin Location)
}

// ConstHooker observes constant instructions and their produced value.
type ConstHooker interface{ Const(loc Location, v Value) }

// DropHooker observes drop and the value removed.
type DropHooker interface{ Drop(loc Location, v Value) }

// SelectHooker observes select: the condition and both candidate values.
type SelectHooker interface {
	Select(loc Location, cond bool, first, second Value)
}

// UnaryHooker observes unary numeric operations; op is the instruction name
// (e.g. "f32.abs").
type UnaryHooker interface {
	Unary(loc Location, op string, input, result Value)
}

// BinaryHooker observes binary numeric operations; op is the instruction
// name (e.g. "i32.add").
type BinaryHooker interface {
	Binary(loc Location, op string, first, second, result Value)
}

// LocalHooker observes local.get/set/tee; op is the instruction name.
type LocalHooker interface {
	Local(loc Location, op string, index uint32, v Value)
}

// GlobalHooker observes global.get/set; op is the instruction name.
type GlobalHooker interface {
	Global(loc Location, op string, index uint32, v Value)
}

// LoadHooker observes memory loads; op is the instruction name.
type LoadHooker interface {
	Load(loc Location, op string, mem MemArg, v Value)
}

// StoreHooker observes memory stores; op is the instruction name.
type StoreHooker interface {
	Store(loc Location, op string, mem MemArg, v Value)
}

// MemorySizeHooker observes memory.size and its result.
type MemorySizeHooker interface {
	MemorySize(loc Location, pages uint32)
}

// MemoryGrowHooker observes memory.grow.
type MemoryGrowHooker interface {
	MemoryGrow(loc Location, delta, previousSize uint32)
}

// CallPreHooker observes calls before the callee runs. target is the callee
// function index (for indirect calls, resolved from the runtime table
// index); tableIdx is -1 for direct calls. args is borrowed (see Values):
// valid only during the hook call, Values(args).Clone() to retain.
type CallPreHooker interface {
	CallPre(loc Location, target int, args []Value, tableIdx int64)
}

// CallPostHooker observes call returns and the result values. results is
// borrowed (see Values).
type CallPostHooker interface {
	CallPost(loc Location, results []Value)
}

// ReturnHooker observes function returns (explicit and implicit). results is
// borrowed (see Values).
type ReturnHooker interface {
	Return(loc Location, results []Value)
}

// StartHooker observes execution of the module's start function.
type StartHooker interface{ Start(loc Location) }

// BlockCoverageHooker marks a coverage-class analysis that can consume one
// probe event per CFG basic block instead of a hook per instruction. loc is
// the block's first original instruction; end is the index of its last, so
// the analysis can mark the whole [loc.Instr, end] range covered from one
// event. A static-analysis-enabled engine (wasabi.WithStaticAnalysis)
// collapses the instrumentation of such analyses to block probes; without a
// static plan the probe never fires and the analysis falls back to whatever
// per-instruction hooks it also implements.
type BlockCoverageHooker interface {
	BlockCovered(loc Location, end int)
}

// BlockModeKeeper optionally refines block-probe elision: when a
// BlockCoverageHooker also implements it, the returned kinds stay
// instrumented per-instruction alongside the probes (for hooks whose payload
// — e.g. branch directions — cannot be reconstructed from block coverage
// alone). Analyses without it run on probes only.
type BlockModeKeeper interface {
	BlockModeHooks() HookSet
}
