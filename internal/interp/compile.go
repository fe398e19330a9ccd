package interp

// This file is the interpreter's compile pass: it lowers a function body from
// the structured wasm.Instr form into a flat, direct-threaded internal
// instruction array in which every control decision has been resolved ahead
// of time. Where the previous interpreter re-walked a runtime label stack and
// consulted matchEnd/matchElse maps on every step, the compiled form knows,
// for each branch, the exact target pc and the exact operand-stack height to
// cut back to — the hot loop only does table-driven jumps, the moral
// equivalent of running on a pre-decoded wasm3-style threaded interpreter
// instead of re-interpreting structure (the overhead the paper's Fig 9
// setting avoids by running on a JIT-ing engine).
//
// The pass is a single forward scan with an abstract stack-height
// interpretation (the same algorithm the validator runs, minus types):
//
//   - block/loop/if/else/end emit no runtime instructions at all; they only
//     move compile-time bookkeeping (control frames, branch fixups).
//   - br/br_if/br_table/return become jumps carrying a pre-computed
//     stack adjustment (target height + carried arity), or plain gotos when
//     the heights already line up.
//   - statically dead code (after br/return/unreachable) is not emitted.
//   - adjacent instruction pairs that dominate real instruction streams are
//     fused into superinstructions (see the iGet* / iConst* opcodes below).
//
// Fusion discipline: a fused group must never straddle a position some
// branch can land on. Every time a branch target is recorded or patched
// (loop headers, else starts, block ends), `barrier` is advanced to the
// current emit position, and peepholes refuse to reach back across it.
// Collapses only ever rewrite the suffix beyond the newest barrier, so
// recorded targets stay valid.
//
// To add a fusion: pick the trigger instruction (the last of the pattern),
// extend the corresponding emit helper (emitBin, the load/store cases, or
// compileBrIf) with a peephole that checks the already-emitted suffix
// against `barrier`, and add an exec case plus a BenchmarkFusion_* in
// fusion_bench_test.go. Keep fused groups semantically identical to the
// unfused sequence — branches may land on the group's first position.

import (
	"fmt"

	"wasabi/internal/wasm"
)

// iop is an internal threaded-code opcode.
type iop uint8

const (
	iInvalid iop = iota
	iUnreachable

	// Control flow. Branch targets are absolute pcs into the code array.
	iBr       // pc = a (heights already line up; plain goto)
	iBrAdjust // pc = a, cut the stack to the packed height/arity in b
	iBrIf     // pop cond; if nonzero: pc = a
	iBrIfAdjust
	iBrIfZero // pop cond; if zero: pc = a (the compiled form of `if`)
	iBrTable  // pop idx; brPool[a : a+b+1], last entry is the default
	iReturn   // return the top b values

	iCall         // a = function index (defined function), b = param count
	iCallHost     // a = function index (imported host function), b = param count
	iCallHostFast // iCallHost via the zero-copy Fast convention (result-less)
	iCallHostEmit // iCallHostFast's record-emit twin (Emit convention: no error path)
	iCallIndirect // a = type index, b = param count

	iDrop
	iDropN // sp -= a (residue of a dead-hook call whose args could not all be unpushed)
	iSelect
	iLocalGet  // push locals[a]
	iLocalSet  // locals[a] = pop
	iLocalTee  // locals[a] = top
	iGlobalGet // push globals[a].Val
	iGlobalSet // globals[a].Val = pop
	iMemorySize
	iMemoryGrow
	iConst // push bits
	iLoad  // pop addr; push load(addr, offset=bits, mode=a)
	iStore // pop value, addr; store (mode=a, offset=bits)
	iUn    // unary numeric; a = wasm opcode
	iBin   // binary numeric; a = wasm opcode

	iTruncSat // saturating truncation; a = 0xFC subopcode (0–7)
	iMemCopy  // pop len, src, dst; copy within linear memory
	iMemFill  // pop len, val, dst; fill linear memory

	// Superinstructions, fused from the dominant adjacent pairs/triples.
	// Instrumented code is full of hook-call prologues (two i32 location
	// constants, then the saved operands from scratch locals), which is why
	// the multi-push fusions pay off so well under hooks.
	iGetGetBin       // push binop(op=bits, locals[a], locals[b])
	iGetBin          // push binop(op=bits, pop, locals[a])
	iConstBin        // push binop(op=a, pop, const=bits)
	iGetConstCmpBrIf // if binop(op=a>>24, locals[a&fuseLocalMask], bits) != 0: pc = b
	iGetLoad         // push load(locals[a], offset=bits, mode=b)
	iGetStore        // pop addr; store(addr, offset=bits, mode=b, value=locals[a])
	iConst2          // push a, then b (two consts whose payloads fit 32 bits)
	iGetGet          // push locals[a], then locals[b]
	iGetGetGet       // push locals[a], locals[b], locals[bits]
	iSetTee          // pop into locals[a]; then locals[b] = top (set;tee pair)

	// Containment guard, emitted only under Config.Guarded: one per basic
	// block, at the first real instruction of the block. a = fuel cost (the
	// number of source instructions the block covers, patched when the block
	// closes), b = source-instruction offset (fault/trap context). Guards sit
	// on every loop header and before every call, so they bound both loops
	// and recursion; a disabled config emits none of them (zero overhead).
	iGuard
)

// fuseLocalMask bounds the local index a fused compare-and-branch can encode
// (the wasm opcode shares the a field's top byte).
const fuseLocalMask = (1 << 24) - 1

// instr is one pre-decoded threaded-code instruction: 24 bytes, pointer-free.
// Which fields are meaningful depends on op (see the iop comments).
type instr struct {
	op   iop
	a, b uint32
	bits uint64
}

// brEntry is one pre-resolved br_table target: the absolute target pc and the
// packed stack adjustment (height<<1 | carriedArity).
type brEntry struct {
	target uint32
	adj    uint32
}

// Memory access modes, pre-decoded from the load/store opcode so exec does a
// single dense switch instead of re-deriving size and sign extension.
const (
	ldRaw32 = iota // 4 bytes, zero-extended (i32.load, f32.load, i64.load32_u)
	ldRaw64        // 8 bytes (i64.load, f64.load)
	ld8U           // 1 byte, zero-extended
	ld16U          // 2 bytes, zero-extended
	ld8S32         // 1 byte, sign-extended to i32
	ld16S32
	ld8S64 // 1 byte, sign-extended to i64
	ld16S64
	ld32S64
)

const (
	st8 = iota
	st16
	st32
	st64
)

// stSizes maps store modes to byte counts.
var stSizes = [4]uint32{1, 2, 4, 8}

func loadModeOf(op wasm.Opcode) uint32 {
	switch op {
	case wasm.OpI32Load, wasm.OpF32Load, wasm.OpI64Load32U:
		return ldRaw32
	case wasm.OpI64Load, wasm.OpF64Load:
		return ldRaw64
	case wasm.OpI32Load8U, wasm.OpI64Load8U:
		return ld8U
	case wasm.OpI32Load16U, wasm.OpI64Load16U:
		return ld16U
	case wasm.OpI32Load8S:
		return ld8S32
	case wasm.OpI32Load16S:
		return ld16S32
	case wasm.OpI64Load8S:
		return ld8S64
	case wasm.OpI64Load16S:
		return ld16S64
	default: // wasm.OpI64Load32S
		return ld32S64
	}
}

func storeModeOf(op wasm.Opcode) uint32 {
	switch op {
	case wasm.OpI32Store8, wasm.OpI64Store8:
		return st8
	case wasm.OpI32Store16, wasm.OpI64Store16:
		return st16
	case wasm.OpI32Store, wasm.OpF32Store, wasm.OpI64Store32:
		return st32
	default: // i64.store, f64.store
		return st64
	}
}

func isCompare(op wasm.Opcode) bool {
	return (op >= wasm.OpI32Eq && op <= wasm.OpI32GeU) ||
		(op >= wasm.OpI64Eq && op <= wasm.OpI64GeU) ||
		(op >= wasm.OpF32Eq && op <= wasm.OpF64Ge)
}

// cframe is one compile-time control frame. Nothing of it survives into the
// compiled code: it exists only to resolve branches.
type cframe struct {
	op        wasm.Opcode // OpBlock/OpLoop/OpIf/OpElse; OpCall marks the function frame
	height    int         // operand-stack height at frame entry
	arity     int         // block result count (0 or 1 in the MVP)
	loopStart int         // branch target of a loop frame
	elseJump  int         // code index of an if's pending false-edge jump, -1 otherwise
	fixCode   []int       // code indices to patch to this frame's end position
	fixPool   []int       // brPool indices to patch to this frame's end position
}

// branchArity returns the number of values a branch targeting this frame
// carries: loops take branches back to their header (no results in the MVP),
// everything else receives the block results.
func (fr *cframe) branchArity() int {
	if fr.op == wasm.OpLoop {
		return 0
	}
	return fr.arity
}

// compiler lowers the defined functions of one module. It is reused across
// every function of a compile run: code, brPool and ctrl are scratch buffers
// that keep their capacity from one body to the next, and each finished body
// is copied out at its exact length (compileFunc), so the compiled form
// carries no slack capacity.
type compiler struct {
	ix       *wasm.Index
	shape    []hostCall // call lowering per imported function; nil lowers every host call plain
	f        *wasm.Func
	nLocals  int // params + declared locals
	code     []instr
	brPool   []brEntry
	ctrl     []cframe
	height   int
	maxStack int
	barrier  int  // peepholes must not reach into code[:barrier]
	dead     bool // current position is statically unreachable
	deadSkip int  // nesting depth of fully-dead blocks being skipped

	// Containment-guard bookkeeping (Config.Guarded): the pending iGuard of
	// the current basic block and the fuel cost accumulated for it. Guards
	// are emitted lazily at the block's first charged instruction and their
	// cost is patched when the block closes (closeGuard), so bookkeeping
	// opcodes never grow the code and a disabled config emits nothing.
	guarded   bool
	srcPC     int    // source-instruction offset of the instruction being compiled
	guardIdx  int    // code index of the pending guard, -1 when none
	guardCost uint32 // source instructions charged to the pending guard
}

// lower compiles one function body into the compiler's scratch buffers. It
// rejects structurally broken bodies (unbalanced control, operand underflow,
// out-of-range indices), so a malformed module fails at instantiation
// instead of corrupting the interpreter mid-run. The shape lets the pass
// pick the Fast or Emit host-call convention and elide calls to no-op hooks
// together with their argument lowering.
func (c *compiler) lower(sig wasm.FuncType, f *wasm.Func) error {
	c.f = f
	c.nLocals = len(sig.Params) + len(f.Locals)
	c.code = c.code[:0]
	c.brPool = c.brPool[:0]
	c.ctrl = append(c.ctrl[:0], cframe{op: wasm.OpCall, arity: len(sig.Results), elseJump: -1})
	c.height, c.maxStack, c.barrier = 0, 0, 0
	c.dead, c.deadSkip = false, 0
	c.guardIdx, c.guardCost = -1, 0
	for pc := range f.Body {
		c.srcPC = pc
		if err := c.step(f.Body[pc]); err != nil {
			return fmt.Errorf("pc %d (%s): %w", pc, f.Body[pc].Op, err)
		}
	}
	if len(c.ctrl) != 0 {
		return fmt.Errorf("%d unclosed blocks", len(c.ctrl))
	}
	return nil
}

// compileFunc lowers one function body into the threaded-code form and
// copies it out of the scratch buffers at its exact length. Bodies whose
// operand-stack high-water mark exceeds maxStack fail with ErrLimit.
func (c *compiler) compileFunc(sig wasm.FuncType, f *wasm.Func, maxStack int) (*compiledFunc, error) {
	if err := c.lower(sig, f); err != nil {
		return nil, err
	}
	if c.maxStack > maxStack {
		return nil, fmt.Errorf("%w: operand-stack high-water mark %d exceeds limit %d", ErrLimit, c.maxStack, maxStack)
	}
	code := make([]instr, len(c.code))
	copy(code, c.code)
	var brPool []brEntry
	if len(c.brPool) > 0 {
		brPool = make([]brEntry, len(c.brPool))
		copy(brPool, c.brPool)
	}
	return &compiledFunc{
		sig:       sig,
		numParams: len(sig.Params),
		numLocals: c.nLocals,
		code:      code,
		brPool:    brPool,
		maxStack:  c.maxStack,
	}, nil
}

func (c *compiler) emit(in instr) { c.code = append(c.code, in) }

// patch sets the branch-target field of the instruction at idx. The fused
// compare-and-branch keeps its target in b (a holds the opcode and local);
// every other branch keeps it in a.
func (c *compiler) patch(idx, target int) {
	if c.code[idx].op == iGetConstCmpBrIf {
		c.code[idx].b = uint32(target)
	} else {
		c.code[idx].a = uint32(target)
	}
}

func (c *compiler) push(n int) {
	c.height += n
	if c.height > c.maxStack {
		c.maxStack = c.height
	}
}

func (c *compiler) popN(n int) error {
	if c.height-n < c.ctrl[len(c.ctrl)-1].height {
		return fmt.Errorf("operand stack underflow")
	}
	c.height -= n
	return nil
}

// chargeGuard accounts one source instruction to the current basic block's
// containment guard, emitting the guard lazily at the block's first charged
// instruction. Structural opcodes (block/loop/if/else/end/nop) are never
// charged — they emit no runtime work — so step calls this only for real
// instructions.
func (c *compiler) chargeGuard() {
	if c.guardIdx < 0 {
		c.guardIdx = len(c.code)
		c.emit(instr{op: iGuard, b: uint32(c.srcPC)})
	}
	c.guardCost++
}

// closeGuard patches the pending guard with the fuel cost accumulated for
// its basic block; the next charged instruction opens a fresh one. Called
// wherever a basic block ends: loop headers (so every iteration re-executes
// the header's guard), if/else edges, frame ends, and after conditional
// branches (so the taken path is not charged for the fall-through).
func (c *compiler) closeGuard() {
	if c.guardIdx >= 0 {
		c.code[c.guardIdx].a = c.guardCost
		c.guardIdx = -1
		c.guardCost = 0
	}
}

// markDead starts a statically-unreachable region: nothing is emitted until
// the enclosing frame is closed (or its else arm begins).
func (c *compiler) markDead() {
	c.dead = true
	c.height = c.ctrl[len(c.ctrl)-1].height
	c.barrier = len(c.code)
}

func adjPack(height, arity int) (uint32, error) {
	if arity > 1 {
		return 0, fmt.Errorf("branch carrying %d values (MVP allows at most 1)", arity)
	}
	return uint32(height)<<1 | uint32(arity), nil
}

// step compiles a single instruction.
func (c *compiler) step(in wasm.Instr) error {
	op := in.Op
	if len(c.ctrl) == 0 {
		return fmt.Errorf("instruction after function-level end")
	}

	if c.dead {
		switch op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			c.deadSkip++
		case wasm.OpElse:
			if c.deadSkip == 0 {
				return c.beginElse()
			}
		case wasm.OpEnd:
			if c.deadSkip > 0 {
				c.deadSkip--
				return nil
			}
			return c.endFrame()
		}
		return nil
	}

	if c.guarded {
		switch op {
		case wasm.OpNop, wasm.OpBlock, wasm.OpLoop, wasm.OpIf, wasm.OpElse, wasm.OpEnd:
			// Structural opcodes are free: they emit no runtime instructions.
		default:
			c.chargeGuard()
		}
	}

	switch op {
	case wasm.OpNop:
		// Emits nothing: the threaded form has no use for it.
	case wasm.OpUnreachable:
		c.emit(instr{op: iUnreachable})
		c.markDead()

	case wasm.OpBlock:
		c.ctrl = append(c.ctrl, cframe{op: op, height: c.height, arity: len(in.Block.Results()), elseJump: -1})
	case wasm.OpLoop:
		// The loop body is its own basic block: its guard sits at the header
		// position (the branch target), so every iteration re-executes it.
		c.closeGuard()
		c.ctrl = append(c.ctrl, cframe{op: op, height: c.height, arity: len(in.Block.Results()), loopStart: len(c.code), elseJump: -1})
		c.barrier = len(c.code) // the header is a branch target
	case wasm.OpIf:
		if err := c.popN(1); err != nil {
			return fmt.Errorf("if condition: %w", err)
		}
		c.ctrl = append(c.ctrl, cframe{op: op, height: c.height, arity: len(in.Block.Results()), elseJump: len(c.code)})
		c.emit(instr{op: iBrIfZero}) // target patched at else/end
		c.closeGuard()               // the then arm is a new basic block
	case wasm.OpElse:
		return c.beginElse()
	case wasm.OpEnd:
		return c.endFrame()

	case wasm.OpBr:
		if err := c.compileBr(int(in.Idx)); err != nil {
			return err
		}
		c.markDead()
	case wasm.OpBrIf:
		if err := c.compileBrIf(int(in.Idx)); err != nil {
			return err
		}
		c.closeGuard() // the fall-through is a new basic block
	case wasm.OpBrTable:
		if err := c.compileBrTable(in); err != nil {
			return err
		}
		c.markDead()
	case wasm.OpReturn:
		if err := c.compileBr(len(c.ctrl) - 1); err != nil {
			return err
		}
		c.markDead()

	case wasm.OpCall:
		ft, err := c.ix.FuncType(in.Idx)
		if err != nil {
			return err
		}
		if err := c.popN(len(ft.Params)); err != nil {
			return fmt.Errorf("call %d: %w", in.Idx, err)
		}
		c.push(len(ft.Results))
		// Host calls (hook dispatch in the instrumented setting) are resolved
		// at compile time: the function index space puts imports first. With
		// the host shape in hand the pass goes further: no-op hooks are not
		// called at all — their argument lowering is unwound — and
		// Fast-convention hooks get the zero-copy stack-window opcode.
		callOp := iCall
		if int(in.Idx) < c.ix.NumImportedFuncs() {
			callOp = iCallHost
			if int(in.Idx) < len(c.shape) {
				switch c.shape[in.Idx] {
				case hostNoOp:
					c.elideArgs(len(ft.Params))
					return nil
				case hostEmit:
					// Record encoders (the stream dispatch pipeline): same
					// stack-window convention as Fast, but the callee cannot
					// return an error, so the exec case skips the error check.
					callOp = iCallHostEmit
				case hostFast:
					callOp = iCallHostFast
				}
			}
		}
		c.emit(instr{op: callOp, a: in.Idx, b: uint32(len(ft.Params))})
	case wasm.OpCallIndirect:
		types := c.ix.Module().Types
		if int(in.Idx) >= len(types) {
			return fmt.Errorf("call_indirect type index %d out of range", in.Idx)
		}
		ft := types[in.Idx]
		if err := c.popN(1 + len(ft.Params)); err != nil {
			return fmt.Errorf("call_indirect: %w", err)
		}
		c.push(len(ft.Results))
		c.emit(instr{op: iCallIndirect, a: in.Idx, b: uint32(len(ft.Params))})

	case wasm.OpDrop:
		if err := c.popN(1); err != nil {
			return fmt.Errorf("drop: %w", err)
		}
		// Dropping a value some pure instruction just pushed cancels the
		// push (or peels the newest push off a fused multi-push).
		if k := len(c.code); k > c.barrier {
			switch prev := &c.code[k-1]; prev.op {
			case iConst, iLocalGet, iGlobalGet:
				c.code = c.code[:k-1]
				return nil
			case iConst2:
				*prev = instr{op: iConst, bits: uint64(prev.a)}
				return nil
			case iGetGet:
				*prev = instr{op: iLocalGet, a: prev.a}
				return nil
			case iGetGetGet:
				*prev = instr{op: iGetGet, a: prev.a, b: prev.b}
				return nil
			}
		}
		c.emit(instr{op: iDrop})
	case wasm.OpSelect:
		if err := c.popN(3); err != nil {
			return fmt.Errorf("select: %w", err)
		}
		c.push(1)
		c.emit(instr{op: iSelect})

	case wasm.OpLocalGet:
		if err := c.checkLocal(in.Idx); err != nil {
			return err
		}
		c.push(1)
		if k := len(c.code); k > c.barrier {
			switch prev := &c.code[k-1]; prev.op {
			case iLocalGet:
				*prev = instr{op: iGetGet, a: prev.a, b: in.Idx}
				return nil
			case iGetGet:
				*prev = instr{op: iGetGetGet, a: prev.a, b: prev.b, bits: uint64(in.Idx)}
				return nil
			case iLocalSet:
				if prev.a == in.Idx {
					// set x; get x is exactly tee x.
					*prev = instr{op: iLocalTee, a: in.Idx}
					return nil
				}
			}
		}
		c.emit(instr{op: iLocalGet, a: in.Idx})
	case wasm.OpLocalSet:
		if err := c.checkLocal(in.Idx); err != nil {
			return err
		}
		if err := c.popN(1); err != nil {
			return fmt.Errorf("local.set: %w", err)
		}
		c.emit(instr{op: iLocalSet, a: in.Idx})
	case wasm.OpLocalTee:
		if err := c.checkLocal(in.Idx); err != nil {
			return err
		}
		if err := c.popN(1); err != nil {
			return fmt.Errorf("local.tee: %w", err)
		}
		c.push(1)
		if k := len(c.code); k > c.barrier && c.code[k-1].op == iLocalSet {
			c.code[k-1] = instr{op: iSetTee, a: c.code[k-1].a, b: in.Idx}
			return nil
		}
		c.emit(instr{op: iLocalTee, a: in.Idx})
	case wasm.OpGlobalGet:
		if _, err := c.ix.GlobalType(in.Idx); err != nil {
			return err
		}
		c.push(1)
		c.emit(instr{op: iGlobalGet, a: in.Idx})
	case wasm.OpGlobalSet:
		if _, err := c.ix.GlobalType(in.Idx); err != nil {
			return err
		}
		if err := c.popN(1); err != nil {
			return fmt.Errorf("global.set: %w", err)
		}
		c.emit(instr{op: iGlobalSet, a: in.Idx})

	case wasm.OpMemorySize:
		c.push(1)
		c.emit(instr{op: iMemorySize})
	case wasm.OpMemoryGrow:
		if err := c.popN(1); err != nil {
			return fmt.Errorf("memory.grow: %w", err)
		}
		c.push(1)
		c.emit(instr{op: iMemoryGrow})

	case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
		c.push(1)
		v := in.ConstValue()
		if k := len(c.code); k > c.barrier && c.code[k-1].op == iConst &&
			c.code[k-1].bits <= 0xFFFFFFFF && v <= 0xFFFFFFFF {
			c.code[k-1] = instr{op: iConst2, a: uint32(c.code[k-1].bits), b: uint32(v)}
			return nil
		}
		c.emit(instr{op: iConst, bits: v})

	default:
		switch {
		case op.IsLoad():
			if err := c.popN(1); err != nil {
				return fmt.Errorf("%s address: %w", op, err)
			}
			c.push(1)
			mode := loadModeOf(op)
			offset := uint64(in.MemOffset())
			if k := len(c.code); k > c.barrier {
				switch prev := &c.code[k-1]; prev.op {
				case iLocalGet:
					*prev = instr{op: iGetLoad, a: prev.a, b: mode, bits: offset}
					return nil
				case iGetGet:
					addr := prev.b
					*prev = instr{op: iLocalGet, a: prev.a}
					c.emit(instr{op: iGetLoad, a: addr, b: mode, bits: offset})
					return nil
				case iGetGetGet:
					addr := uint32(prev.bits)
					*prev = instr{op: iGetGet, a: prev.a, b: prev.b}
					c.emit(instr{op: iGetLoad, a: addr, b: mode, bits: offset})
					return nil
				}
			}
			c.emit(instr{op: iLoad, a: mode, bits: offset})
		case op.IsStore():
			if err := c.popN(2); err != nil {
				return fmt.Errorf("%s: %w", op, err)
			}
			mode := storeModeOf(op)
			if k := len(c.code); k > c.barrier && c.code[k-1].op == iLocalGet {
				c.code[k-1] = instr{op: iGetStore, a: c.code[k-1].a, b: mode, bits: uint64(in.MemOffset())}
			} else {
				c.emit(instr{op: iStore, a: mode, bits: uint64(in.MemOffset())})
			}
		case op.IsUnary():
			if err := c.popN(1); err != nil {
				return fmt.Errorf("%s: %w", op, err)
			}
			c.push(1)
			switch op {
			case wasm.OpI32ReinterpretF32, wasm.OpI64ReinterpretF64,
				wasm.OpF32ReinterpretI32, wasm.OpF64ReinterpretI64:
				// Identity on the raw stack representation: emit nothing.
			default:
				c.emit(instr{op: iUn, a: uint32(op)})
			}
		case op.IsBinary():
			if err := c.popN(2); err != nil {
				return fmt.Errorf("%s: %w", op, err)
			}
			c.push(1)
			c.emitBin(op)
		case op == wasm.OpMiscPrefix:
			if _, _, ok := wasm.MiscTruncSatSig(in.Idx); ok {
				if err := c.popN(1); err != nil {
					return fmt.Errorf("%s: %w", wasm.MiscName(in.Idx), err)
				}
				c.push(1)
				c.emit(instr{op: iTruncSat, a: in.Idx})
				return nil
			}
			switch in.Idx {
			case wasm.MiscMemoryCopy:
				if err := c.popN(3); err != nil {
					return fmt.Errorf("memory.copy: %w", err)
				}
				c.emit(instr{op: iMemCopy})
			case wasm.MiscMemoryFill:
				if err := c.popN(3); err != nil {
					return fmt.Errorf("memory.fill: %w", err)
				}
				c.emit(instr{op: iMemFill})
			default:
				return fmt.Errorf("unsupported 0xfc subopcode %d (%s)", in.Idx, wasm.MiscName(in.Idx))
			}
		default:
			return fmt.Errorf("unsupported opcode %s", op)
		}
	}
	return nil
}

// elideArgs removes the lowering of the top n operand-stack values, used
// when a call to a no-op hook is elided (dead-hook elision): the pushes that
// materialized its arguments are unwound from the emitted suffix as long as
// they are provably pure — constants, local reads, global reads, and the
// fused multi-push forms of those (which are peeled value by value). Anything
// else (a branch target boundary, a value produced by a call or a trapping
// op) stops the unwind and the residue is discarded with a single iDropN.
func (c *compiler) elideArgs(n int) {
	for n > 0 && len(c.code) > c.barrier {
		k := len(c.code)
		switch prev := &c.code[k-1]; prev.op {
		case iConst, iLocalGet, iGlobalGet:
			c.code = c.code[:k-1]
			n--
		case iConst2:
			if n >= 2 {
				c.code = c.code[:k-1]
				n -= 2
			} else {
				*prev = instr{op: iConst, bits: uint64(prev.a)}
				n--
			}
		case iGetGet:
			if n >= 2 {
				c.code = c.code[:k-1]
				n -= 2
			} else {
				*prev = instr{op: iLocalGet, a: prev.a}
				n--
			}
		case iGetGetGet:
			switch {
			case n >= 3:
				c.code = c.code[:k-1]
				n -= 3
			case n == 2:
				*prev = instr{op: iLocalGet, a: prev.a}
				n -= 2
			default:
				*prev = instr{op: iGetGet, a: prev.a, b: prev.b}
				n--
			}
		default:
			goto done
		}
	}
done:
	if n > 0 {
		c.emit(instr{op: iDropN, a: uint32(n)})
	}
}

func (c *compiler) checkLocal(idx uint32) error {
	if int(idx) >= c.nLocals {
		return fmt.Errorf("local index %d out of range (have %d)", idx, c.nLocals)
	}
	return nil
}

// trappingBinop reports whether a binary numeric op can trap (and so must
// not be constant-folded at compile time).
func trappingBinop(op wasm.Opcode) bool {
	switch op {
	case wasm.OpI32DivS, wasm.OpI32DivU, wasm.OpI32RemS, wasm.OpI32RemU,
		wasm.OpI64DivS, wasm.OpI64DivU, wasm.OpI64RemS, wasm.OpI64RemU:
		return true
	}
	return false
}

// emitBin emits a binary numeric op, fusing with the values just pushed when
// they came from constants or locals (the dominant operand sources). Two
// constants feeding a non-trapping op fold to a constant outright.
func (c *compiler) emitBin(op wasm.Opcode) {
	k := len(c.code)
	if k > c.barrier {
		switch prev := &c.code[k-1]; prev.op {
		case iConst:
			*prev = instr{op: iConstBin, a: uint32(op), bits: prev.bits}
			return
		case iConst2:
			if !trappingBinop(op) {
				*prev = instr{op: iConst, bits: binop(op, uint64(prev.a), uint64(prev.b))}
			} else {
				rhs := uint64(prev.b)
				*prev = instr{op: iConst, bits: uint64(prev.a)}
				c.emit(instr{op: iConstBin, a: uint32(op), bits: rhs})
			}
			return
		case iGetGet:
			*prev = instr{op: iGetGetBin, a: prev.a, b: prev.b, bits: uint64(op)}
			return
		case iGetGetGet:
			la, lb, lc := prev.a, prev.b, uint32(prev.bits)
			*prev = instr{op: iLocalGet, a: la}
			c.emit(instr{op: iGetGetBin, a: lb, b: lc, bits: uint64(op)})
			return
		case iLocalGet:
			*prev = instr{op: iGetBin, a: prev.a, bits: uint64(op)}
			return
		}
	}
	c.emit(instr{op: iBin, a: uint32(op)})
}

// compileBr emits an unconditional branch to the n-th enclosing label.
func (c *compiler) compileBr(n int) error {
	if n >= len(c.ctrl) {
		return fmt.Errorf("branch label %d exceeds control depth %d", n, len(c.ctrl))
	}
	fr := &c.ctrl[len(c.ctrl)-1-n]
	arity := fr.branchArity()
	if c.height < fr.height+arity {
		return fmt.Errorf("branch carries %d values but stack height is %d (target height %d)", arity, c.height, fr.height)
	}
	plain := c.height == fr.height+arity
	var ins instr
	if plain {
		ins = instr{op: iBr}
	} else {
		adj, err := adjPack(fr.height, arity)
		if err != nil {
			return err
		}
		ins = instr{op: iBrAdjust, b: adj}
	}
	if fr.op == wasm.OpLoop {
		ins.a = uint32(fr.loopStart)
		c.emit(ins)
		return nil
	}
	fr.fixCode = append(fr.fixCode, len(c.code))
	c.emit(ins)
	return nil
}

// compileBrIf emits a conditional branch, fusing the dominant loop-condition
// pattern `local.get; const; compare; br_if` into one instruction when the
// branch needs no stack adjustment.
func (c *compiler) compileBrIf(n int) error {
	if err := c.popN(1); err != nil {
		return fmt.Errorf("br_if condition: %w", err)
	}
	if n >= len(c.ctrl) {
		return fmt.Errorf("branch label %d exceeds control depth %d", n, len(c.ctrl))
	}
	fr := &c.ctrl[len(c.ctrl)-1-n]
	arity := fr.branchArity()
	if c.height < fr.height+arity {
		return fmt.Errorf("br_if carries %d values but stack height is %d (target height %d)", arity, c.height, fr.height)
	}
	plain := c.height == fr.height+arity

	if plain {
		if k := len(c.code); k-1 > c.barrier &&
			c.code[k-1].op == iConstBin && isCompare(wasm.Opcode(c.code[k-1].a)) &&
			c.code[k-2].op == iLocalGet && c.code[k-2].a <= fuseLocalMask {
			fused := instr{
				op:   iGetConstCmpBrIf,
				a:    c.code[k-1].a<<24 | c.code[k-2].a,
				bits: c.code[k-1].bits,
			}
			c.code[k-2] = fused
			c.code = c.code[:k-1]
			idx := k - 2
			if fr.op == wasm.OpLoop {
				c.code[idx].b = uint32(fr.loopStart)
			} else {
				fr.fixCode = append(fr.fixCode, idx)
			}
			return nil
		}
		ins := instr{op: iBrIf}
		if fr.op == wasm.OpLoop {
			ins.a = uint32(fr.loopStart)
			c.emit(ins)
			return nil
		}
		fr.fixCode = append(fr.fixCode, len(c.code))
		c.emit(ins)
		return nil
	}

	adj, err := adjPack(fr.height, arity)
	if err != nil {
		return err
	}
	ins := instr{op: iBrIfAdjust, b: adj}
	if fr.op == wasm.OpLoop {
		ins.a = uint32(fr.loopStart)
		c.emit(ins)
		return nil
	}
	fr.fixCode = append(fr.fixCode, len(c.code))
	c.emit(ins)
	return nil
}

// compileBrTable lowers a br_table into a pool of pre-resolved branch
// descriptors: one per target plus the default as the final entry.
func (c *compiler) compileBrTable(in wasm.Instr) error {
	if err := c.popN(1); err != nil {
		return fmt.Errorf("br_table index: %w", err)
	}
	off, cnt := in.BrTableSpan()
	if off+cnt > len(c.f.BrTargets) {
		return fmt.Errorf("br_table target span [%d:%d] exceeds pool (%d)", off, off+cnt, len(c.f.BrTargets))
	}
	poolOff := len(c.brPool)
	addEntry := func(n int) error {
		if n >= len(c.ctrl) {
			return fmt.Errorf("br_table label %d exceeds control depth %d", n, len(c.ctrl))
		}
		fr := &c.ctrl[len(c.ctrl)-1-n]
		arity := fr.branchArity()
		if c.height < fr.height+arity {
			return fmt.Errorf("br_table carries %d values but stack height is %d", arity, c.height)
		}
		adj, err := adjPack(fr.height, arity)
		if err != nil {
			return err
		}
		e := brEntry{adj: adj}
		if fr.op == wasm.OpLoop {
			e.target = uint32(fr.loopStart)
		} else {
			fr.fixPool = append(fr.fixPool, len(c.brPool))
		}
		c.brPool = append(c.brPool, e)
		return nil
	}
	for _, t := range c.f.BrTargets[off : off+cnt] {
		if err := addEntry(int(t)); err != nil {
			return err
		}
	}
	if err := addEntry(int(in.Idx)); err != nil { // default, last
		return err
	}
	c.emit(instr{op: iBrTable, a: uint32(poolOff), b: uint32(cnt)})
	return nil
}

// beginElse switches compilation from an if's then arm to its else arm.
func (c *compiler) beginElse() error {
	fr := &c.ctrl[len(c.ctrl)-1]
	if fr.op != wasm.OpIf {
		return fmt.Errorf("else without matching if")
	}
	c.closeGuard() // the then arm's block ends here
	if !c.dead {
		if c.height != fr.height+fr.arity {
			return fmt.Errorf("stack height %d at else, want %d", c.height, fr.height+fr.arity)
		}
		// The then arm falls through over the else arm to the end.
		fr.fixCode = append(fr.fixCode, len(c.code))
		c.emit(instr{op: iBr})
	}
	// The if's false edge lands here, at the start of the else arm.
	c.patch(fr.elseJump, len(c.code))
	fr.elseJump = -1
	fr.op = wasm.OpElse
	c.height = fr.height
	c.barrier = len(c.code)
	c.dead = false
	c.deadSkip = 0
	return nil
}

// endFrame closes the innermost control frame, patching every branch that
// targets its end. Closing the function frame emits the final return.
func (c *compiler) endFrame() error {
	fr := &c.ctrl[len(c.ctrl)-1]
	if !c.dead && c.height != fr.height+fr.arity {
		return fmt.Errorf("stack height %d at end, want %d", c.height, fr.height+fr.arity)
	}
	c.closeGuard() // the frame's last basic block ends here
	end := len(c.code)
	if fr.elseJump >= 0 {
		// if without else: the false edge lands at the end. (Validation
		// guarantees such ifs have no results.)
		c.patch(fr.elseJump, end)
	}
	for _, idx := range fr.fixCode {
		c.patch(idx, end)
	}
	for _, idx := range fr.fixPool {
		c.brPool[idx].target = uint32(end)
	}
	c.height = fr.height + fr.arity
	c.barrier = end
	c.dead = false
	c.deadSkip = 0
	isFunc := fr.op == wasm.OpCall
	arity := fr.arity
	c.ctrl = c.ctrl[:len(c.ctrl)-1]
	if isFunc {
		c.emit(instr{op: iReturn, b: uint32(arity)})
	}
	return nil
}
