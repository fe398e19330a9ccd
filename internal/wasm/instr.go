package wasm

import (
	"fmt"
	"math"
	"strings"
)

// Instr is a single WebAssembly instruction. The struct is a flattened
// union: which immediate fields are meaningful depends on Op. Structured
// control flow is kept linear, exactly as in the binary format: block, loop,
// if, else, and end appear as individual instructions.
//
// The struct is deliberately 16 bytes and pointer-free: instrumentation
// expands instruction streams by an order of magnitude, so the size of this
// struct directly scales the instrumenter's memory traffic, and keeping it
// free of pointers lets the garbage collector skip instruction buffers
// entirely (no scanning, no write barriers on copies).
//
//	Op              meaningful fields
//	block/loop/if   Block
//	br, br_if       Idx (relative label)
//	br_table        Idx (default target), Bits (span into the Func.BrTargets pool)
//	call            Idx (function index)
//	call_indirect   Idx (type index)
//	local.*         Idx (local index)
//	global.*        Idx (global index)
//	loads/stores    Bits (align<<32 | offset; see MemAlign/MemOffset)
//	*.const         Bits (raw stack representation; see ConstValue)
type Instr struct {
	Op    Opcode
	Block BlockType
	Idx   uint32
	Bits  uint64
}

// Convenience constructors used heavily by the builder, the instrumenter,
// and tests. They keep call sites short and make the immediates explicit.

// I32Const returns an i32.const instruction.
func I32Const(v int32) Instr { return Instr{Op: OpI32Const, Bits: uint64(uint32(v))} }

// I64ConstInstr returns an i64.const instruction.
func I64ConstInstr(v int64) Instr { return Instr{Op: OpI64Const, Bits: uint64(v)} }

// F32ConstInstr returns an f32.const instruction.
func F32ConstInstr(v float32) Instr { return Instr{Op: OpF32Const, Bits: uint64(math.Float32bits(v))} }

// F64ConstInstr returns an f64.const instruction.
func F64ConstInstr(v float64) Instr { return Instr{Op: OpF64Const, Bits: math.Float64bits(v)} }

// LocalGet returns a local.get instruction.
func LocalGet(idx uint32) Instr { return Instr{Op: OpLocalGet, Idx: idx} }

// LocalSet returns a local.set instruction.
func LocalSet(idx uint32) Instr { return Instr{Op: OpLocalSet, Idx: idx} }

// LocalTee returns a local.tee instruction.
func LocalTee(idx uint32) Instr { return Instr{Op: OpLocalTee, Idx: idx} }

// GlobalGet returns a global.get instruction.
func GlobalGet(idx uint32) Instr { return Instr{Op: OpGlobalGet, Idx: idx} }

// GlobalSet returns a global.set instruction.
func GlobalSet(idx uint32) Instr { return Instr{Op: OpGlobalSet, Idx: idx} }

// Call returns a call instruction.
func Call(funcIdx uint32) Instr { return Instr{Op: OpCall, Idx: funcIdx} }

// Op1 returns an instruction with no immediates.
func Op1(op Opcode) Instr { return Instr{Op: op} }

// Block returns a block instruction with the given block type.
func BlockInstr(bt BlockType) Instr { return Instr{Op: OpBlock, Block: bt} }

// Loop returns a loop instruction with the given block type.
func LoopInstr(bt BlockType) Instr { return Instr{Op: OpLoop, Block: bt} }

// IfInstr returns an if instruction with the given block type.
func IfInstr(bt BlockType) Instr { return Instr{Op: OpIf, Block: bt} }

// Br returns a br instruction targeting the given relative label.
func Br(label uint32) Instr { return Instr{Op: OpBr, Idx: label} }

// BrIf returns a br_if instruction targeting the given relative label.
func BrIf(label uint32) Instr { return Instr{Op: OpBrIf, Idx: label} }

// End returns an end instruction.
func End() Instr { return Instr{Op: OpEnd} }

// MiscInstr returns a 0xFC-prefixed instruction (saturating truncation,
// bulk memory) with the given subopcode.
func MiscInstr(sub uint32) Instr { return Instr{Op: OpMiscPrefix, Idx: sub} }

// MemInstr returns a load or store instruction with the given memory
// immediate.
func MemInstr(op Opcode, align, offset uint32) Instr {
	return Instr{Op: op, Bits: uint64(align)<<32 | uint64(offset)}
}

// MemAlign returns the alignment hint of a load or store.
func (in Instr) MemAlign() uint32 { return uint32(in.Bits >> 32) }

// MemOffset returns the static offset of a load or store.
func (in Instr) MemOffset() uint32 { return uint32(in.Bits) }

// AppendBrTable returns a br_table instruction whose (non-default) targets
// are appended to the given per-function target pool (Func.BrTargets). The
// instruction stores only the pool span, which keeps Instr pointer-free.
func AppendBrTable(pool *[]uint32, targets []uint32, deflt uint32) Instr {
	off := len(*pool)
	*pool = append(*pool, targets...)
	return BrTableInstr(deflt, off, len(targets))
}

// BrTableInstr returns a br_table instruction referencing the target-pool
// span [off, off+n) with the given default label. This is the single place
// the span packing is defined; decoders and tests must use it rather than
// assembling Bits by hand.
func BrTableInstr(deflt uint32, off, n int) Instr {
	return Instr{Op: OpBrTable, Idx: deflt, Bits: uint64(uint32(off))<<32 | uint64(uint32(n))}
}

// BrTableSpan returns the offset and length of a br_table instruction's
// target list within its function's BrTargets pool.
func (in Instr) BrTableSpan() (off, n int) {
	return int(uint32(in.Bits >> 32)), int(uint32(in.Bits))
}

// BrTargets resolves a br_table instruction's (non-default) targets in the
// given per-function pool.
func (in Instr) BrTargets(pool []uint32) []uint32 {
	off, n := in.BrTableSpan()
	return pool[off : off+n]
}

// ConstValue returns the constant payload of a const instruction as raw
// 64-bit value bits (i32 zero-extended from its 32-bit pattern, floats as
// their IEEE 754 bit patterns). Constructors and the decoder store the
// payload in exactly this canonical form, so this is a plain field read.
func (in Instr) ConstValue() uint64 { return in.Bits }

// ConstI32 returns the payload of an i32.const.
func (in Instr) ConstI32() int32 { return int32(uint32(in.Bits)) }

// ConstI64 returns the payload of an i64.const.
func (in Instr) ConstI64() int64 { return int64(in.Bits) }

// ConstF32 returns the payload of an f32.const.
func (in Instr) ConstF32() float32 { return math.Float32frombits(uint32(in.Bits)) }

// ConstF64 returns the payload of an f64.const.
func (in Instr) ConstF64() float64 { return math.Float64frombits(in.Bits) }

func (in Instr) String() string { return in.StringWithPool(nil) }

// StringWithPool renders the instruction in wat-like form. The pool is the
// owning function's BrTargets pool, needed to print br_table targets; with a
// nil pool br_table targets are elided.
func (in Instr) StringWithPool(pool []uint32) string {
	if in.Op == OpMiscPrefix {
		// 0xFC instructions render by subopcode name (the prefix byte alone
		// has no text form).
		return MiscName(in.Idx)
	}
	var sb strings.Builder
	sb.WriteString(in.Op.String())
	switch in.Op {
	case OpBlock, OpLoop, OpIf:
		if in.Block != BlockEmpty {
			fmt.Fprintf(&sb, " (result %s)", in.Block)
		}
	case OpBr, OpBrIf, OpCall, OpCallIndirect, OpLocalGet, OpLocalSet, OpLocalTee, OpGlobalGet, OpGlobalSet:
		fmt.Fprintf(&sb, " %d", in.Idx)
	case OpBrTable:
		if pool != nil {
			for _, t := range in.BrTargets(pool) {
				fmt.Fprintf(&sb, " %d", t)
			}
		} else if _, n := in.BrTableSpan(); n > 0 {
			fmt.Fprintf(&sb, " [%d targets]", n)
		}
		fmt.Fprintf(&sb, " %d", in.Idx)
	case OpI32Const:
		fmt.Fprintf(&sb, " %d", in.ConstI32())
	case OpI64Const:
		fmt.Fprintf(&sb, " %d", in.ConstI64())
	case OpF32Const:
		fmt.Fprintf(&sb, " %v", in.ConstF32())
	case OpF64Const:
		fmt.Fprintf(&sb, " %v", in.ConstF64())
	default:
		if in.Op.IsLoad() || in.Op.IsStore() {
			fmt.Fprintf(&sb, " offset=%d align=%d", in.MemOffset(), in.MemAlign())
		}
	}
	return sb.String()
}
