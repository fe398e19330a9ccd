package interp

import (
	"math"
	"math/bits"

	"wasabi/internal/wasm"
)

// exec runs one compiled function body to completion and returns its
// results. The body is the flat threaded-code form produced by compileFunc:
// branch targets and stack adjustments are pre-resolved, so the loop below
// never touches a label stack — control flow is pc assignment plus, for
// value-carrying branches, one packed stack cut.
//
// Traps propagate as panics and are recovered in call. The frame fr provides
// the reusable locals/stack/result buffers for this call depth; the returned
// slice aliases fr.result and is only valid until the next call at the same
// depth (Instance.call copies it before returning to embedders).
func (inst *Instance) exec(cf *compiledFunc, args []Value, fr *frame) []Value {
	if cap(fr.locals) < cf.numLocals {
		fr.locals = make([]Value, cf.numLocals+16)
	}
	locals := fr.locals[:cf.numLocals]
	n := copy(locals, args)
	clear(locals[n:])

	// The compile pass knows the operand-stack high-water mark of the code
	// it emitted (pushes it elided do not count; TestExactSizingObserved
	// runs the spec corpus against it), so the stack is a flat buffer sized
	// to exactly that mark: no append, no growth checks.
	if cap(fr.stack) < cf.maxStack {
		fr.stack = make([]Value, cf.maxStack)
	}
	stack := fr.stack[:cap(fr.stack)]
	fr.stack = stack
	sp := 0

	code := cf.code
	pc := 0
	for {
		in := &code[pc]
		pc++
		switch in.op {
		case iGuard:
			// Containment guard (Config.Guarded): one interrupt check and one
			// fuel decrement per basic block. Cost a is the block's source
			// instruction count, so consumption is deterministic; b records
			// the source offset for trap/fault context.
			inst.curPC = in.b
			if inst.intr.Load() != 0 {
				trap(TrapInterrupted)
			}
			inst.fuel -= int64(in.a)
			if inst.fuel < 0 {
				inst.fuel = 0
				trap(TrapFuelExhausted)
			}
		case iConst:
			stack[sp] = in.bits
			sp++
		case iLocalGet:
			stack[sp] = locals[in.a]
			sp++
		case iLocalSet:
			sp--
			locals[in.a] = stack[sp]
		case iLocalTee:
			locals[in.a] = stack[sp-1]
		case iConst2:
			stack[sp] = uint64(in.a)
			stack[sp+1] = uint64(in.b)
			sp += 2
		case iGetGet:
			stack[sp] = locals[in.a]
			stack[sp+1] = locals[in.b]
			sp += 2
		case iGetGetGet:
			stack[sp] = locals[in.a]
			stack[sp+1] = locals[in.b]
			stack[sp+2] = locals[in.bits]
			sp += 3
		case iSetTee:
			sp--
			locals[in.a] = stack[sp]
			locals[in.b] = stack[sp-1]

		case iGetGetBin:
			stack[sp] = binop(wasm.Opcode(in.bits), locals[in.a], locals[in.b])
			sp++
		case iGetBin:
			stack[sp-1] = binop(wasm.Opcode(in.bits), stack[sp-1], locals[in.a])
		case iConstBin:
			stack[sp-1] = binop(wasm.Opcode(in.a), stack[sp-1], in.bits)
		case iBin:
			sp--
			stack[sp-1] = binop(wasm.Opcode(in.a), stack[sp-1], stack[sp])
		case iUn:
			stack[sp-1] = unop(wasm.Opcode(in.a), stack[sp-1])
		case iTruncSat:
			stack[sp-1] = truncSat(in.a, stack[sp-1])

		case iMemCopy:
			sp -= 3
			inst.Memory.copyWithin(uint32(stack[sp]), uint32(stack[sp+1]), uint32(stack[sp+2]))
		case iMemFill:
			sp -= 3
			inst.Memory.fill(uint32(stack[sp]), byte(stack[sp+1]), uint32(stack[sp+2]))

		case iGetConstCmpBrIf:
			if binop(wasm.Opcode(in.a>>24), locals[in.a&fuseLocalMask], in.bits) != 0 {
				pc = int(in.b)
			}
		case iBr:
			pc = int(in.a)
		case iBrAdjust:
			h := int(in.b) >> 1
			if in.b&1 != 0 {
				stack[h] = stack[sp-1]
				sp = h + 1
			} else {
				sp = h
			}
			pc = int(in.a)
		case iBrIf:
			sp--
			if uint32(stack[sp]) != 0 {
				pc = int(in.a)
			}
		case iBrIfAdjust:
			sp--
			if uint32(stack[sp]) != 0 {
				h := int(in.b) >> 1
				if in.b&1 != 0 {
					stack[h] = stack[sp-1]
					sp = h + 1
				} else {
					sp = h
				}
				pc = int(in.a)
			}
		case iBrIfZero:
			sp--
			if uint32(stack[sp]) == 0 {
				pc = int(in.a)
			}
		case iBrTable:
			sp--
			idx := uint32(stack[sp])
			if idx > in.b {
				idx = in.b // default entry, stored last
			}
			e := cf.brPool[in.a+idx]
			h := int(e.adj) >> 1
			if e.adj&1 != 0 {
				stack[h] = stack[sp-1]
				sp = h + 1
			} else {
				sp = h
			}
			pc = int(e.target)
		case iReturn:
			arity := int(in.b)
			result := append(fr.result[:0], stack[sp-arity:sp]...)
			fr.result = result
			return result

		case iCall:
			np := int(in.b)
			res := inst.invoke(in.a, stack[sp-np:sp])
			sp -= np
			sp += copy(stack[sp:], res)
		case iCallHost:
			// The compile pass proved the target is an imported host
			// function, so the generic invoke dispatch is skipped.
			np := int(in.b)
			res := inst.callHost(inst.funcs[in.a].host, stack[sp-np:sp])
			sp -= np
			sp += copy(stack[sp:], res)
		case iCallHostFast:
			// Zero-copy host call (the hook-call fast path of the
			// instrumented setting): the callee receives a read-only window
			// of the operand stack, returns no results and fails only by a
			// trap panic, so there is no argument copy, no result handling
			// and no error check. The compile pass proved the target
			// result-less and Fast-capable.
			np := int(in.b)
			inst.funcs[in.a].host.Fast(inst, stack[sp-np:sp])
			sp -= np
		case iCallIndirect:
			sp--
			ti := uint32(stack[sp])
			if inst.Table == nil || int(ti) >= len(inst.Table.Elems) {
				trapf(TrapTableOutOfBounds, "table index %d", ti)
			}
			fidx := inst.Table.Elems[ti]
			if fidx < 0 || int(fidx) >= len(inst.funcs) {
				trapf(TrapUndefinedElement, "table slot %d uninitialized", ti)
			}
			want := inst.Module.Types[in.a]
			have := inst.Module.Types[inst.funcs[fidx].typeIdx]
			if !want.Equal(have) {
				trapf(TrapIndirectMismatch, "want %s, have %s", want, have)
			}
			np := int(in.b)
			res := inst.invoke(uint32(fidx), stack[sp-np:sp])
			sp -= np
			sp += copy(stack[sp:], res)

		case iDrop:
			sp--
		case iDropN:
			sp -= int(in.a)
		case iSelect:
			sp -= 2
			if uint32(stack[sp+1]) == 0 {
				stack[sp-1] = stack[sp]
			}

		case iGlobalGet:
			stack[sp] = inst.Globals[in.a].Val
			sp++
		case iGlobalSet:
			sp--
			inst.Globals[in.a].Val = stack[sp]

		case iMemorySize:
			stack[sp] = uint64(inst.Memory.Pages())
			sp++
		case iMemoryGrow:
			delta := uint32(stack[sp-1])
			stack[sp-1] = uint64(uint32(inst.Memory.Grow(delta)))

		case iLoad:
			stack[sp-1] = inst.Memory.loadAt(uint32(stack[sp-1]), uint32(in.bits), in.a)
		case iGetLoad:
			stack[sp] = inst.Memory.loadAt(uint32(locals[in.a]), uint32(in.bits), in.b)
			sp++
		case iStore:
			sp -= 2
			inst.Memory.store(uint32(stack[sp]), uint32(in.bits), stSizes[in.a], stack[sp+1])
		case iGetStore:
			sp--
			inst.Memory.store(uint32(stack[sp]), uint32(in.bits), stSizes[in.b], locals[in.a])

		case iUnreachable:
			trap(TrapUnreachable)
		default:
			faultf("interp: corrupt threaded code: opcode %d", in.op)
		}
	}
}

// loadAt performs a pre-decoded memory load: mode selects the access width
// and sign extension computed at compile time.
func (m *Memory) loadAt(addr, offset, mode uint32) Value {
	switch mode {
	case ldRaw32:
		return m.load(addr, offset, 4)
	case ldRaw64:
		return m.load(addr, offset, 8)
	case ld8U:
		return m.load(addr, offset, 1)
	case ld16U:
		return m.load(addr, offset, 2)
	case ld8S32:
		return uint64(uint32(int32(int8(m.load(addr, offset, 1)))))
	case ld16S32:
		return uint64(uint32(int32(int16(m.load(addr, offset, 2)))))
	case ld8S64:
		return uint64(int64(int8(m.load(addr, offset, 1))))
	case ld16S64:
		return uint64(int64(int16(m.load(addr, offset, 2))))
	default: // ld32S64
		return uint64(int64(int32(m.load(addr, offset, 4))))
	}
}

func b2i(b bool) Value {
	if b {
		return 1
	}
	return 0
}

// binop implements every fixed-signature binary numeric instruction on raw
// 64-bit stack values. It is shared by the plain iBin dispatch and by the
// fused superinstructions, which only differ in where the operands come from.
func binop(op wasm.Opcode, a, b Value) Value {
	switch op {
	// i32 comparisons.
	case wasm.OpI32Eq:
		return b2i(uint32(a) == uint32(b))
	case wasm.OpI32Ne:
		return b2i(uint32(a) != uint32(b))
	case wasm.OpI32LtS:
		return b2i(int32(a) < int32(b))
	case wasm.OpI32LtU:
		return b2i(uint32(a) < uint32(b))
	case wasm.OpI32GtS:
		return b2i(int32(a) > int32(b))
	case wasm.OpI32GtU:
		return b2i(uint32(a) > uint32(b))
	case wasm.OpI32LeS:
		return b2i(int32(a) <= int32(b))
	case wasm.OpI32LeU:
		return b2i(uint32(a) <= uint32(b))
	case wasm.OpI32GeS:
		return b2i(int32(a) >= int32(b))
	case wasm.OpI32GeU:
		return b2i(uint32(a) >= uint32(b))

	// i64 comparisons.
	case wasm.OpI64Eq:
		return b2i(a == b)
	case wasm.OpI64Ne:
		return b2i(a != b)
	case wasm.OpI64LtS:
		return b2i(int64(a) < int64(b))
	case wasm.OpI64LtU:
		return b2i(a < b)
	case wasm.OpI64GtS:
		return b2i(int64(a) > int64(b))
	case wasm.OpI64GtU:
		return b2i(a > b)
	case wasm.OpI64LeS:
		return b2i(int64(a) <= int64(b))
	case wasm.OpI64LeU:
		return b2i(a <= b)
	case wasm.OpI64GeS:
		return b2i(int64(a) >= int64(b))
	case wasm.OpI64GeU:
		return b2i(a >= b)

	// f32 comparisons.
	case wasm.OpF32Eq:
		return b2i(AsF32(a) == AsF32(b))
	case wasm.OpF32Ne:
		return b2i(AsF32(a) != AsF32(b))
	case wasm.OpF32Lt:
		return b2i(AsF32(a) < AsF32(b))
	case wasm.OpF32Gt:
		return b2i(AsF32(a) > AsF32(b))
	case wasm.OpF32Le:
		return b2i(AsF32(a) <= AsF32(b))
	case wasm.OpF32Ge:
		return b2i(AsF32(a) >= AsF32(b))

	// f64 comparisons.
	case wasm.OpF64Eq:
		return b2i(AsF64(a) == AsF64(b))
	case wasm.OpF64Ne:
		return b2i(AsF64(a) != AsF64(b))
	case wasm.OpF64Lt:
		return b2i(AsF64(a) < AsF64(b))
	case wasm.OpF64Gt:
		return b2i(AsF64(a) > AsF64(b))
	case wasm.OpF64Le:
		return b2i(AsF64(a) <= AsF64(b))
	case wasm.OpF64Ge:
		return b2i(AsF64(a) >= AsF64(b))

	// i32 arithmetic.
	case wasm.OpI32Add:
		return uint64(uint32(a) + uint32(b))
	case wasm.OpI32Sub:
		return uint64(uint32(a) - uint32(b))
	case wasm.OpI32Mul:
		return uint64(uint32(a) * uint32(b))
	case wasm.OpI32DivS:
		return uint64(uint32(i32DivS(int32(a), int32(b))))
	case wasm.OpI32DivU:
		if uint32(b) == 0 {
			trap(TrapDivByZero)
		}
		return uint64(uint32(a) / uint32(b))
	case wasm.OpI32RemS:
		if int32(b) == 0 {
			trap(TrapDivByZero)
		}
		if int32(a) == math.MinInt32 && int32(b) == -1 {
			return 0
		}
		return uint64(uint32(int32(a) % int32(b)))
	case wasm.OpI32RemU:
		if uint32(b) == 0 {
			trap(TrapDivByZero)
		}
		return uint64(uint32(a) % uint32(b))
	case wasm.OpI32And:
		return uint64(uint32(a) & uint32(b))
	case wasm.OpI32Or:
		return uint64(uint32(a) | uint32(b))
	case wasm.OpI32Xor:
		return uint64(uint32(a) ^ uint32(b))
	case wasm.OpI32Shl:
		return uint64(uint32(a) << (uint32(b) & 31))
	case wasm.OpI32ShrS:
		return uint64(uint32(int32(a) >> (uint32(b) & 31)))
	case wasm.OpI32ShrU:
		return uint64(uint32(a) >> (uint32(b) & 31))
	case wasm.OpI32Rotl:
		return uint64(bits.RotateLeft32(uint32(a), int(uint32(b)&31)))
	case wasm.OpI32Rotr:
		return uint64(bits.RotateLeft32(uint32(a), -int(uint32(b)&31)))

	// i64 arithmetic.
	case wasm.OpI64Add:
		return a + b
	case wasm.OpI64Sub:
		return a - b
	case wasm.OpI64Mul:
		return a * b
	case wasm.OpI64DivS:
		return uint64(i64DivS(int64(a), int64(b)))
	case wasm.OpI64DivU:
		if b == 0 {
			trap(TrapDivByZero)
		}
		return a / b
	case wasm.OpI64RemS:
		if int64(b) == 0 {
			trap(TrapDivByZero)
		}
		if int64(a) == math.MinInt64 && int64(b) == -1 {
			return 0
		}
		return uint64(int64(a) % int64(b))
	case wasm.OpI64RemU:
		if b == 0 {
			trap(TrapDivByZero)
		}
		return a % b
	case wasm.OpI64And:
		return a & b
	case wasm.OpI64Or:
		return a | b
	case wasm.OpI64Xor:
		return a ^ b
	case wasm.OpI64Shl:
		return a << (b & 63)
	case wasm.OpI64ShrS:
		return uint64(int64(a) >> (b & 63))
	case wasm.OpI64ShrU:
		return a >> (b & 63)
	case wasm.OpI64Rotl:
		return bits.RotateLeft64(a, int(b&63))
	case wasm.OpI64Rotr:
		return bits.RotateLeft64(a, -int(b&63))

	// f32 arithmetic.
	case wasm.OpF32Add:
		return F32(AsF32(a) + AsF32(b))
	case wasm.OpF32Sub:
		return F32(AsF32(a) - AsF32(b))
	case wasm.OpF32Mul:
		return F32(AsF32(a) * AsF32(b))
	case wasm.OpF32Div:
		return F32(AsF32(a) / AsF32(b))
	case wasm.OpF32Min:
		return F32(float32(fmin(float64(AsF32(a)), float64(AsF32(b)))))
	case wasm.OpF32Max:
		return F32(float32(fmax(float64(AsF32(a)), float64(AsF32(b)))))
	case wasm.OpF32Copysign:
		return F32(float32(math.Copysign(float64(AsF32(a)), float64(AsF32(b)))))

	// f64 arithmetic.
	case wasm.OpF64Add:
		return F64(AsF64(a) + AsF64(b))
	case wasm.OpF64Sub:
		return F64(AsF64(a) - AsF64(b))
	case wasm.OpF64Mul:
		return F64(AsF64(a) * AsF64(b))
	case wasm.OpF64Div:
		return F64(AsF64(a) / AsF64(b))
	case wasm.OpF64Min:
		return F64(fmin(AsF64(a), AsF64(b)))
	case wasm.OpF64Max:
		return F64(fmax(AsF64(a), AsF64(b)))
	case wasm.OpF64Copysign:
		return F64(math.Copysign(AsF64(a), AsF64(b)))
	}
	// A typed fault, not a plain panic: a decoder/compiler gap surfaces as a
	// failed invocation (*RuntimeFault) instead of crashing the host process.
	faultf("interp: unhandled binary opcode %s", op)
	return 0
}

// unop implements every fixed-signature unary numeric instruction (tests,
// bit counts, float unary math, conversions) on raw 64-bit stack values.
// The reinterpret instructions never reach here: they are identities on the
// stack representation and the compile pass elides them.
func unop(op wasm.Opcode, v Value) Value {
	switch op {
	case wasm.OpI32Eqz:
		return b2i(uint32(v) == 0)
	case wasm.OpI64Eqz:
		return b2i(v == 0)

	case wasm.OpI32Clz:
		return uint64(uint32(bits.LeadingZeros32(uint32(v))))
	case wasm.OpI32Ctz:
		return uint64(uint32(bits.TrailingZeros32(uint32(v))))
	case wasm.OpI32Popcnt:
		return uint64(uint32(bits.OnesCount32(uint32(v))))
	case wasm.OpI64Clz:
		return uint64(bits.LeadingZeros64(v))
	case wasm.OpI64Ctz:
		return uint64(bits.TrailingZeros64(v))
	case wasm.OpI64Popcnt:
		return uint64(bits.OnesCount64(v))

	case wasm.OpF32Abs:
		return F32(float32(math.Abs(float64(AsF32(v)))))
	case wasm.OpF32Neg:
		return v ^ 0x80000000
	case wasm.OpF32Ceil:
		return F32(float32(math.Ceil(float64(AsF32(v)))))
	case wasm.OpF32Floor:
		return F32(float32(math.Floor(float64(AsF32(v)))))
	case wasm.OpF32Trunc:
		return F32(float32(math.Trunc(float64(AsF32(v)))))
	case wasm.OpF32Nearest:
		return F32(float32(math.RoundToEven(float64(AsF32(v)))))
	case wasm.OpF32Sqrt:
		return F32(float32(math.Sqrt(float64(AsF32(v)))))

	case wasm.OpF64Abs:
		return F64(math.Abs(AsF64(v)))
	case wasm.OpF64Neg:
		return v ^ 0x8000000000000000
	case wasm.OpF64Ceil:
		return F64(math.Ceil(AsF64(v)))
	case wasm.OpF64Floor:
		return F64(math.Floor(AsF64(v)))
	case wasm.OpF64Trunc:
		return F64(math.Trunc(AsF64(v)))
	case wasm.OpF64Nearest:
		return F64(math.RoundToEven(AsF64(v)))
	case wasm.OpF64Sqrt:
		return F64(math.Sqrt(AsF64(v)))

	// Conversions.
	case wasm.OpI32WrapI64:
		return uint64(uint32(v))
	case wasm.OpI32TruncF32S:
		return uint64(uint32(truncToI32(float64(AsF32(v)))))
	case wasm.OpI32TruncF32U:
		return uint64(truncToU32(float64(AsF32(v))))
	case wasm.OpI32TruncF64S:
		return uint64(uint32(truncToI32(AsF64(v))))
	case wasm.OpI32TruncF64U:
		return uint64(truncToU32(AsF64(v)))
	case wasm.OpI64ExtendI32S:
		return uint64(int64(int32(v)))
	case wasm.OpI64ExtendI32U:
		return uint64(uint32(v))
	case wasm.OpI64TruncF32S:
		return uint64(truncToI64(float64(AsF32(v))))
	case wasm.OpI64TruncF32U:
		return truncToU64(float64(AsF32(v)))
	case wasm.OpI64TruncF64S:
		return uint64(truncToI64(AsF64(v)))
	case wasm.OpI64TruncF64U:
		return truncToU64(AsF64(v))
	case wasm.OpF32ConvertI32S:
		return F32(float32(int32(v)))
	case wasm.OpF32ConvertI32U:
		return F32(float32(uint32(v)))
	case wasm.OpF32ConvertI64S:
		return F32(float32(int64(v)))
	case wasm.OpF32ConvertI64U:
		return F32(float32(v))
	case wasm.OpF32DemoteF64:
		return F32(float32(AsF64(v)))
	case wasm.OpF64ConvertI32S:
		return F64(float64(int32(v)))
	case wasm.OpF64ConvertI32U:
		return F64(float64(uint32(v)))
	case wasm.OpF64ConvertI64S:
		return F64(float64(int64(v)))
	case wasm.OpF64ConvertI64U:
		return F64(float64(v))
	case wasm.OpF64PromoteF32:
		return F64(float64(AsF32(v)))
	case wasm.OpI32ReinterpretF32, wasm.OpI64ReinterpretF64,
		wasm.OpF32ReinterpretI32, wasm.OpF64ReinterpretI64:
		return v

	// Sign-extension operators (the 0xC0–0xC4 proposal).
	case wasm.OpI32Extend8S:
		return uint64(uint32(int32(int8(v))))
	case wasm.OpI32Extend16S:
		return uint64(uint32(int32(int16(v))))
	case wasm.OpI64Extend8S:
		return uint64(int64(int8(v)))
	case wasm.OpI64Extend16S:
		return uint64(int64(int16(v)))
	case wasm.OpI64Extend32S:
		return uint64(int64(int32(v)))
	}
	faultf("interp: unhandled unary opcode %s", op) // typed fault, like binop
	return 0
}

// truncSat implements the saturating float→int truncations (0xFC subopcodes
// 0–7) on raw stack values: NaN produces 0 and out-of-range values clamp to
// the target type's bounds instead of trapping.
func truncSat(sub uint32, v Value) Value {
	switch sub {
	case wasm.MiscI32TruncSatF32S:
		return uint64(uint32(truncSatI32(float64(AsF32(v)))))
	case wasm.MiscI32TruncSatF32U:
		return uint64(truncSatU32(float64(AsF32(v))))
	case wasm.MiscI32TruncSatF64S:
		return uint64(uint32(truncSatI32(AsF64(v))))
	case wasm.MiscI32TruncSatF64U:
		return uint64(truncSatU32(AsF64(v)))
	case wasm.MiscI64TruncSatF32S:
		return uint64(truncSatI64(float64(AsF32(v))))
	case wasm.MiscI64TruncSatF32U:
		return truncSatU64(float64(AsF32(v)))
	case wasm.MiscI64TruncSatF64S:
		return uint64(truncSatI64(AsF64(v)))
	case wasm.MiscI64TruncSatF64U:
		return truncSatU64(AsF64(v))
	}
	faultf("interp: unhandled trunc_sat subopcode %d", sub) // typed fault
	return 0
}
