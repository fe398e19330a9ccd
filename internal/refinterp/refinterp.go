// Package refinterp is a small tree-walking reference interpreter over the
// decoded wasm.Module AST. It exists as the oracle of the differential-
// execution harness (internal/diff): an independent second implementation of
// the MVP execution semantics, structured the way the specification is
// written — structured control flow walked recursively, one plain switch per
// instruction, no instruction fusion, no threaded code, no precomputation
// beyond what the AST already carries. Everything here favors being
// obviously correct over being fast; the production interpreter (internal/
// interp) is the one that cheats, and this package is what catches it when a
// cheat changes meaning.
//
// The observable surface mirrors the production interpreter exactly: the
// same raw 64-bit value representation, the same trap-code wording, the same
// default resource ceilings (memory pages, table elements, call depth), so
// the harness can compare results, trap codes, and final memory/global state
// byte for byte.
package refinterp

import (
	"fmt"
	"math"
	"math/bits"

	"wasabi/internal/wasm"
)

// Value is the raw 64-bit representation shared with the production
// interpreter: i32 zero-extended, i64 as-is, floats as IEEE 754 bit patterns
// (f32 zero-extended).
type Value = uint64

// Trap is a WebAssembly runtime trap. Code uses the spec's wording — the
// same strings as the production interpreter's trap codes — so the
// differential harness can compare trap identity across implementations.
type Trap struct {
	Code string
	Info string
}

func (t *Trap) Error() string {
	if t.Info == "" {
		return "refinterp trap: " + t.Code
	}
	return "refinterp trap: " + t.Code + ": " + t.Info
}

// Trap codes (spec wording, identical to internal/interp's constants).
const (
	TrapUnreachable       = "unreachable executed"
	TrapOutOfBounds       = "out of bounds memory access"
	TrapDivByZero         = "integer divide by zero"
	TrapIntOverflow       = "integer overflow"
	TrapInvalidConversion = "invalid conversion to integer"
	TrapUndefinedElement  = "undefined element"
	TrapIndirectMismatch  = "indirect call type mismatch"
	TrapStackExhausted    = "call stack exhausted"
	TrapTableOutOfBounds  = "out of bounds table access"
	TrapHostError         = "host function error"
)

// Default resource ceilings, matching internal/interp's Config defaults so
// limit-sensitive behavior (memory.grow failure, deep recursion) diverges
// nowhere but in genuinely divergent semantics.
const (
	maxCallDepth   = 8192
	maxMemoryPages = 8192
)

// HostFunc is an embedder-provided function (refinterp's own type: the
// reference implementation shares no code with the production interpreter's
// host-call machinery).
type HostFunc struct {
	Type wasm.FuncType
	Fn   func(args []Value) ([]Value, error)
}

// Imports maps module name → field name → *HostFunc. The reference
// interpreter links host functions only; modules under differential test
// define their own memory, table, and globals.
type Imports map[string]map[string]*HostFunc

// Instance is an instantiated module. Not safe for concurrent use.
type Instance struct {
	Module  *wasm.Module
	Mem     []byte
	Table   []int64 // -1 = uninitialized slot
	Globals []Value

	hosts []*HostFunc // function index space: imports, then nil per defined func
	depth int
}

func trap(code string) { panic(&Trap{Code: code}) }

func trapf(code, format string, args ...any) {
	panic(&Trap{Code: code, Info: fmt.Sprintf(format, args...)})
}

// Instantiate links, allocates, and initializes an instance: imports, table,
// memory, globals, element and data segments, then the start function.
func Instantiate(m *wasm.Module, imports Imports) (inst *Instance, err error) {
	inst = &Instance{Module: m}
	for _, imp := range m.Imports {
		if imp.Kind != wasm.ExternFunc {
			return nil, fmt.Errorf("refinterp: unsupported import kind %d for %q.%q", imp.Kind, imp.Module, imp.Name)
		}
		hf := imports[imp.Module][imp.Name]
		if hf == nil {
			return nil, fmt.Errorf("refinterp: unresolved import %q.%q", imp.Module, imp.Name)
		}
		if int(imp.TypeIdx) >= len(m.Types) {
			return nil, fmt.Errorf("refinterp: import %q.%q type index out of range", imp.Module, imp.Name)
		}
		if !hf.Type.Equal(m.Types[imp.TypeIdx]) {
			return nil, fmt.Errorf("refinterp: import %q.%q type mismatch", imp.Module, imp.Name)
		}
		inst.hosts = append(inst.hosts, hf)
	}
	for range m.Funcs {
		inst.hosts = append(inst.hosts, nil)
	}

	for _, t := range m.Tables {
		inst.Table = make([]int64, t.Min)
		for i := range inst.Table {
			inst.Table[i] = -1
		}
	}
	for _, mem := range m.Memories {
		if mem.Min > maxMemoryPages {
			return nil, fmt.Errorf("refinterp: memory minimum %d pages exceeds limit %d", mem.Min, maxMemoryPages)
		}
		inst.Mem = make([]byte, int(mem.Min)*wasm.PageSize)
	}
	for i := range m.Globals {
		v, err := inst.evalConst(m.Globals[i].Init)
		if err != nil {
			return nil, fmt.Errorf("refinterp: global %d init: %w", i, err)
		}
		inst.Globals = append(inst.Globals, v)
	}
	for i, e := range m.Elems {
		off, err := inst.evalConst(e.Offset)
		if err != nil {
			return nil, fmt.Errorf("refinterp: elem %d offset: %w", i, err)
		}
		start := uint32(off)
		if uint64(start)+uint64(len(e.Funcs)) > uint64(len(inst.Table)) {
			return nil, fmt.Errorf("refinterp: elem segment %d out of table bounds", i)
		}
		for j, fidx := range e.Funcs {
			inst.Table[start+uint32(j)] = int64(fidx)
		}
	}
	for i, d := range m.Datas {
		off, err := inst.evalConst(d.Offset)
		if err != nil {
			return nil, fmt.Errorf("refinterp: data %d offset: %w", i, err)
		}
		start := uint32(off)
		if uint64(start)+uint64(len(d.Data)) > uint64(len(inst.Mem)) {
			return nil, fmt.Errorf("refinterp: data segment %d out of memory bounds", i)
		}
		copy(inst.Mem[start:], d.Data)
	}
	if m.Start != nil {
		if _, err := inst.InvokeIdx(*m.Start); err != nil {
			return nil, fmt.Errorf("refinterp: start function: %w", err)
		}
	}
	return inst, nil
}

func (inst *Instance) evalConst(expr []wasm.Instr) (Value, error) {
	if len(expr) != 2 || expr[1].Op != wasm.OpEnd {
		return 0, fmt.Errorf("unsupported constant expression")
	}
	in := expr[0]
	switch in.Op {
	case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
		return in.ConstValue(), nil
	case wasm.OpGlobalGet:
		if int(in.Idx) >= len(inst.Globals) {
			return 0, fmt.Errorf("global index %d out of range", in.Idx)
		}
		return inst.Globals[in.Idx], nil
	}
	return 0, fmt.Errorf("non-constant instruction %s", in.Op)
}

// Invoke calls an exported function by name, converting traps into *Trap
// errors at this boundary.
func (inst *Instance) Invoke(name string, args ...Value) ([]Value, error) {
	idx, ok := inst.Module.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("refinterp: no exported function %q", name)
	}
	return inst.InvokeIdx(idx, args...)
}

// InvokeIdx calls the function at idx in the function index space. Like
// the production interpreter, it rejects an argument count that does not
// match the callee's signature before any code runs.
func (inst *Instance) InvokeIdx(idx uint32, args ...Value) (results []Value, err error) {
	if ft, err := inst.Module.FuncType(idx); err == nil && len(args) != len(ft.Params) {
		return nil, fmt.Errorf("refinterp: function %d (%s) called with %d arguments, want %d",
			idx, inst.Module.FuncName(idx), len(args), len(ft.Params))
	}
	savedDepth := inst.depth
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		t, ok := r.(*Trap)
		if !ok {
			panic(r)
		}
		inst.depth = savedDepth
		results, err = nil, t
	}()
	results = inst.callFunc(idx, args)
	return results, nil
}

// callFunc is the trap-panicking internal call path (host or defined).
func (inst *Instance) callFunc(idx uint32, args []Value) []Value {
	if int(idx) >= len(inst.hosts) {
		trapf(TrapUndefinedElement, "function index %d out of range", idx)
	}
	if hf := inst.hosts[idx]; hf != nil {
		res, err := hf.Fn(args)
		if err != nil {
			if t, ok := err.(*Trap); ok {
				panic(t)
			}
			panic(&Trap{Code: "host function error", Info: err.Error()})
		}
		return res
	}
	inst.depth++
	if inst.depth > maxCallDepth {
		trap(TrapStackExhausted)
	}
	f := &inst.Module.Funcs[int(idx)-inst.Module.NumImportedFuncs()]
	sig := inst.Module.Types[f.TypeIdx]

	// Locals are the parameters, set from args, followed by the declared
	// locals, zero-initialized. args holds exactly one value per parameter:
	// InvokeIdx checks a top-level call's count, validation every other.
	fr := &frame{inst: inst}
	fr.locals = make([]Value, len(sig.Params)+len(f.Locals))
	copy(fr.locals, args)

	_, _ = fr.exec(f.Body, f.BrTargets, 0)
	// On fallthrough, explicit return, and br targeting the function block
	// alike, the function's results are the top values of the operand stack.
	arity := len(sig.Results)
	res := append([]Value(nil), fr.stack[len(fr.stack)-arity:]...)
	inst.depth--
	return res
}

// frame is the activation record of one call: its locals and operand stack.
type frame struct {
	inst   *Instance
	locals []Value
	stack  []Value
}

func (fr *frame) push(v Value) { fr.stack = append(fr.stack, v) }

func (fr *frame) pop() Value {
	v := fr.stack[len(fr.stack)-1]
	fr.stack = fr.stack[:len(fr.stack)-1]
	return v
}

// unwind implements the stack discipline of a branch: the top arity values
// (the label's result) survive, everything above the block's entry height is
// discarded beneath them.
func (fr *frame) unwind(base, arity int) {
	top := len(fr.stack)
	copy(fr.stack[base:], fr.stack[top-arity:top])
	fr.stack = fr.stack[:base+arity]
}

// Control-flow signals of exec. Branches to enclosing labels are the
// non-negative values (0 = innermost).
const (
	sigFall   = -1 // fell through to the matching end
	sigElse   = -2 // hit the else of the enclosing if's then-arm
	sigReturn = -3 // executed return (or br past the function block)
)

// blockArity is the result arity of a label (MVP: zero or one).
func blockArity(bt wasm.BlockType) int {
	if bt == wasm.BlockEmpty {
		return 0
	}
	return 1
}

// matchEnd scans forward from the block/loop/if instruction at pc to its
// matching end, also reporting the position of a same-depth else (-1 when
// absent). Rescanning on every execution is deliberate: no precomputed
// side tables to get wrong.
func matchEnd(body []wasm.Instr, pc int) (elsePC, endPC int) {
	depth := 0
	elsePC = -1
	for i := pc + 1; i < len(body); i++ {
		switch body[i].Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			depth++
		case wasm.OpElse:
			if depth == 0 {
				elsePC = i
			}
		case wasm.OpEnd:
			if depth == 0 {
				return elsePC, i
			}
			depth--
		}
	}
	panic(&Trap{Code: "host function error", Info: "refinterp: unterminated block"})
}

// exec runs body from pc until the sequence ends (the matching end or else at
// this nesting depth) or control leaves it. It returns the pc where execution
// stopped and a signal: sigFall/sigElse with the delimiter's position,
// sigReturn, or a branch depth relative to this sequence's enclosing label.
func (fr *frame) exec(body []wasm.Instr, pool []uint32, pc int) (int, int) {
	inst := fr.inst
	for {
		ins := body[pc]
		switch ins.Op {
		case wasm.OpEnd:
			return pc, sigFall
		case wasm.OpElse:
			return pc, sigElse

		case wasm.OpBlock:
			base := len(fr.stack)
			n, sig := fr.exec(body, pool, pc+1)
			switch {
			case sig == sigFall:
				pc = n + 1
			case sig == sigReturn:
				return n, sigReturn
			case sig == 0:
				fr.unwind(base, blockArity(ins.Block))
				_, endPC := matchEnd(body, pc)
				pc = endPC + 1
			default:
				return n, sig - 1
			}

		case wasm.OpLoop:
			base := len(fr.stack)
		loop:
			for {
				n, sig := fr.exec(body, pool, pc+1)
				switch {
				case sig == sigFall:
					pc = n + 1
					break loop
				case sig == sigReturn:
					return n, sigReturn
				case sig == 0:
					// A branch to a loop label re-enters the loop; its arity
					// is the loop's parameter count, zero in the MVP.
					fr.unwind(base, 0)
				default:
					return n, sig - 1
				}
			}

		case wasm.OpIf:
			cond := uint32(fr.pop())
			base := len(fr.stack)
			elsePC, endPC := matchEnd(body, pc)
			var n, sig int
			switch {
			case cond != 0:
				n, sig = fr.exec(body, pool, pc+1)
			case elsePC >= 0:
				n, sig = fr.exec(body, pool, elsePC+1)
			default:
				n, sig = endPC, sigFall
			}
			switch {
			case sig == sigFall || sig == sigElse:
				pc = endPC + 1
			case sig == sigReturn:
				return n, sigReturn
			case sig == 0:
				fr.unwind(base, blockArity(ins.Block))
				pc = endPC + 1
			default:
				return n, sig - 1
			}

		case wasm.OpBr:
			return pc, int(ins.Idx)
		case wasm.OpBrIf:
			if uint32(fr.pop()) != 0 {
				return pc, int(ins.Idx)
			}
			pc++
		case wasm.OpBrTable:
			i := uint32(fr.pop())
			targets := ins.BrTargets(pool)
			if int(i) < len(targets) {
				return pc, int(targets[i])
			}
			return pc, int(ins.Idx)
		case wasm.OpReturn:
			return pc, sigReturn

		case wasm.OpUnreachable:
			trap(TrapUnreachable)
		case wasm.OpNop:
			pc++

		case wasm.OpCall:
			fr.call(ins.Idx, inst.funcParams(ins.Idx))
			pc++
		case wasm.OpCallIndirect:
			ti := uint32(fr.pop())
			if inst.Table == nil || int(ti) >= len(inst.Table) {
				trapf(TrapTableOutOfBounds, "table index %d", ti)
			}
			fidx := inst.Table[ti]
			if fidx < 0 || int(fidx) >= len(inst.hosts) {
				trapf(TrapUndefinedElement, "table slot %d uninitialized", ti)
			}
			want := inst.Module.Types[ins.Idx]
			have := inst.funcType(uint32(fidx))
			if !want.Equal(have) {
				trapf(TrapIndirectMismatch, "want %s, have %s", want, have)
			}
			fr.call(uint32(fidx), len(want.Params))
			pc++

		case wasm.OpDrop:
			fr.pop()
			pc++
		case wasm.OpSelect:
			cond := uint32(fr.pop())
			b := fr.pop()
			a := fr.pop()
			if cond != 0 {
				fr.push(a)
			} else {
				fr.push(b)
			}
			pc++

		case wasm.OpLocalGet:
			fr.push(fr.locals[ins.Idx])
			pc++
		case wasm.OpLocalSet:
			fr.locals[ins.Idx] = fr.pop()
			pc++
		case wasm.OpLocalTee:
			fr.locals[ins.Idx] = fr.stack[len(fr.stack)-1]
			pc++
		case wasm.OpGlobalGet:
			fr.push(inst.Globals[ins.Idx])
			pc++
		case wasm.OpGlobalSet:
			inst.Globals[ins.Idx] = fr.pop()
			pc++

		case wasm.OpMemorySize:
			fr.push(uint64(uint32(len(inst.Mem) / wasm.PageSize)))
			pc++
		case wasm.OpMemoryGrow:
			delta := uint32(fr.pop())
			fr.push(uint64(uint32(inst.memGrow(delta))))
			pc++

		case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
			fr.push(ins.ConstValue())
			pc++

		case wasm.OpMiscPrefix:
			switch sub := ins.Idx; sub {
			case wasm.MiscMemoryCopy:
				n := uint32(fr.pop())
				src := uint32(fr.pop())
				dst := uint32(fr.pop())
				if uint64(dst)+uint64(n) > uint64(len(inst.Mem)) || uint64(src)+uint64(n) > uint64(len(inst.Mem)) {
					trapf(TrapOutOfBounds, "memory.copy dst %d src %d len %d exceeds memory size %d", dst, src, n, len(inst.Mem))
				}
				copy(inst.Mem[dst:uint64(dst)+uint64(n)], inst.Mem[src:uint64(src)+uint64(n)])
			case wasm.MiscMemoryFill:
				n := uint32(fr.pop())
				val := byte(fr.pop())
				dst := uint32(fr.pop())
				if uint64(dst)+uint64(n) > uint64(len(inst.Mem)) {
					trapf(TrapOutOfBounds, "memory.fill dst %d len %d exceeds memory size %d", dst, n, len(inst.Mem))
				}
				b := inst.Mem[dst : uint64(dst)+uint64(n)]
				for i := range b {
					b[i] = val
				}
			default:
				if sub <= wasm.MiscI64TruncSatF64U {
					fr.push(refTruncSat(sub, fr.pop()))
				} else {
					trapf("host function error", "refinterp: unhandled 0xfc subopcode %d", sub)
				}
			}
			pc++

		default:
			switch {
			case ins.Op.IsLoad():
				addr := uint32(fr.pop())
				fr.push(inst.load(ins.Op, addr, ins.MemOffset()))
			case ins.Op.IsStore():
				v := fr.pop()
				addr := uint32(fr.pop())
				inst.store(ins.Op, addr, ins.MemOffset(), v)
			case ins.Op.IsUnary():
				fr.push(refUnop(ins.Op, fr.pop()))
			case ins.Op.IsBinary():
				b := fr.pop()
				a := fr.pop()
				fr.push(refBinop(ins.Op, a, b))
			default:
				trapf("host function error", "refinterp: unhandled opcode %s", ins.Op)
			}
			pc++
		}
	}
}

// call pops np arguments, invokes the callee, and pushes its results.
func (fr *frame) call(idx uint32, np int) {
	args := fr.stack[len(fr.stack)-np:]
	res := fr.inst.callFunc(idx, args)
	fr.stack = fr.stack[:len(fr.stack)-np]
	fr.stack = append(fr.stack, res...)
}

// funcParams returns the parameter count of the function at idx.
func (inst *Instance) funcParams(idx uint32) int {
	return len(inst.funcType(idx).Params)
}

func (inst *Instance) funcType(idx uint32) wasm.FuncType {
	ft, err := inst.Module.FuncType(idx)
	if err != nil {
		trapf(TrapUndefinedElement, "%v", err)
	}
	return ft
}

// memGrow implements memory.grow under the same ceiling rules as the
// production interpreter's default configuration.
func (inst *Instance) memGrow(delta uint32) int32 {
	old := uint32(len(inst.Mem) / wasm.PageSize)
	newPages := uint64(old) + uint64(delta)
	limit := uint64(maxMemoryPages)
	if len(inst.Module.Memories) > 0 {
		if l := inst.Module.Memories[0]; l.HasMax && uint64(l.Max) < limit {
			limit = uint64(l.Max)
		}
	}
	if newPages > limit {
		return -1
	}
	if delta > 0 {
		inst.Mem = append(inst.Mem, make([]byte, int(delta)*wasm.PageSize)...)
	}
	return int32(old)
}

// span bounds-checks the access [addr+offset, addr+offset+size).
func (inst *Instance) span(addr, offset, size uint32) []byte {
	ea := uint64(addr) + uint64(offset)
	if ea+uint64(size) > uint64(len(inst.Mem)) {
		trapf(TrapOutOfBounds, "address %d+%d size %d exceeds memory size %d", addr, offset, size, len(inst.Mem))
	}
	return inst.Mem[ea : ea+uint64(size)]
}

func leLoad(b []byte) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func leStore(b []byte, v uint64) {
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
}

func (inst *Instance) load(op wasm.Opcode, addr, offset uint32) Value {
	_, size := op.LoadStoreType()
	raw := leLoad(inst.span(addr, offset, size))
	switch op {
	case wasm.OpI32Load8S:
		return uint64(uint32(int32(int8(raw))))
	case wasm.OpI32Load16S:
		return uint64(uint32(int32(int16(raw))))
	case wasm.OpI64Load8S:
		return uint64(int64(int8(raw)))
	case wasm.OpI64Load16S:
		return uint64(int64(int16(raw)))
	case wasm.OpI64Load32S:
		return uint64(int64(int32(raw)))
	}
	return raw // full-width and zero-extending loads
}

func (inst *Instance) store(op wasm.Opcode, addr, offset uint32, v Value) {
	_, size := op.LoadStoreType()
	leStore(inst.span(addr, offset, size), v)
}

// The numeric semantics. Independent code from internal/interp's binop/unop,
// written instruction by instruction from the spec; agreement of the two is
// exactly what the differential harness tests.

func b2i(b bool) Value {
	if b {
		return 1
	}
	return 0
}

func f32(v Value) float32  { return math.Float32frombits(uint32(v)) }
func f64(v Value) float64  { return math.Float64frombits(v) }
func f32v(f float32) Value { return uint64(math.Float32bits(f)) }
func f64v(f float64) Value { return math.Float64bits(f) }

// refMin/refMax implement the spec's NaN-propagating min/max with -0 < +0.
func refMin(a, b float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return math.NaN()
	case a == 0 && b == 0:
		if math.Signbit(a) {
			return a
		}
		return b
	case a < b:
		return a
	default:
		return b
	}
}

func refMax(a, b float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return math.NaN()
	case a == 0 && b == 0:
		if !math.Signbit(a) {
			return a
		}
		return b
	case a > b:
		return a
	default:
		return b
	}
}

func truncI32(f float64) Value {
	if math.IsNaN(f) {
		trap(TrapInvalidConversion)
	}
	t := math.Trunc(f)
	if t < -2147483648 || t > 2147483647 {
		trap(TrapIntOverflow)
	}
	return uint64(uint32(int32(t)))
}

func truncU32(f float64) Value {
	if math.IsNaN(f) {
		trap(TrapInvalidConversion)
	}
	t := math.Trunc(f)
	if t < 0 || t > 4294967295 {
		trap(TrapIntOverflow)
	}
	return uint64(uint32(t))
}

func truncI64(f float64) Value {
	if math.IsNaN(f) {
		trap(TrapInvalidConversion)
	}
	t := math.Trunc(f)
	// 2^63 is exactly representable; the valid range is [-2^63, 2^63).
	if t < -9223372036854775808 || t >= 9223372036854775808 {
		trap(TrapIntOverflow)
	}
	return uint64(int64(t))
}

func truncU64(f float64) Value {
	if math.IsNaN(f) {
		trap(TrapInvalidConversion)
	}
	t := math.Trunc(f)
	if t < 0 || t >= 18446744073709551616 {
		trap(TrapIntOverflow)
	}
	return uint64(t)
}

// refTruncSat implements the saturating float→int truncations (0xFC
// subopcodes 0–7): NaN produces 0 and out-of-range values clamp to the
// target type's bounds instead of trapping.
func refTruncSat(sub uint32, v Value) Value {
	sat := func(f, lo, hi float64) float64 {
		if math.IsNaN(f) {
			return 0
		}
		t := math.Trunc(f)
		if t < lo {
			return lo
		}
		if t > hi {
			return hi
		}
		return t
	}
	switch sub {
	case wasm.MiscI32TruncSatF32S:
		return uint64(uint32(int32(sat(float64(f32(v)), -2147483648, 2147483647))))
	case wasm.MiscI32TruncSatF32U:
		return uint64(uint32(sat(float64(f32(v)), 0, 4294967295)))
	case wasm.MiscI32TruncSatF64S:
		return uint64(uint32(int32(sat(f64(v), -2147483648, 2147483647))))
	case wasm.MiscI32TruncSatF64U:
		return uint64(uint32(sat(f64(v), 0, 4294967295)))
	case wasm.MiscI64TruncSatF32S:
		return satI64(float64(f32(v)))
	case wasm.MiscI64TruncSatF32U:
		return satU64(float64(f32(v)))
	case wasm.MiscI64TruncSatF64S:
		return satI64(f64(v))
	case wasm.MiscI64TruncSatF64U:
		return satU64(f64(v))
	}
	trapf("host function error", "refinterp: unhandled trunc_sat subopcode %d", sub)
	return 0
}

// satI64/satU64 clamp at the 64-bit bounds, which are not exactly
// representable as float64 maxima — the comparisons use the representable
// boundary 2^63 (resp. 2^64) directly.
func satI64(f float64) Value {
	if math.IsNaN(f) {
		return 0
	}
	t := math.Trunc(f)
	switch {
	case t < -9223372036854775808:
		return 0x8000000000000000 // int64 min, as its raw bits
	case t >= 9223372036854775808:
		return uint64(int64(math.MaxInt64))
	}
	return uint64(int64(t))
}

func satU64(f float64) Value {
	if math.IsNaN(f) {
		return 0
	}
	t := math.Trunc(f)
	switch {
	case t < 0:
		return 0
	case t >= 18446744073709551616:
		return uint64(math.MaxUint64)
	}
	return uint64(t)
}

func refBinop(op wasm.Opcode, a, b Value) Value {
	switch op {
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

	case wasm.OpF32Eq:
		return b2i(f32(a) == f32(b))
	case wasm.OpF32Ne:
		return b2i(f32(a) != f32(b))
	case wasm.OpF32Lt:
		return b2i(f32(a) < f32(b))
	case wasm.OpF32Gt:
		return b2i(f32(a) > f32(b))
	case wasm.OpF32Le:
		return b2i(f32(a) <= f32(b))
	case wasm.OpF32Ge:
		return b2i(f32(a) >= f32(b))

	case wasm.OpF64Eq:
		return b2i(f64(a) == f64(b))
	case wasm.OpF64Ne:
		return b2i(f64(a) != f64(b))
	case wasm.OpF64Lt:
		return b2i(f64(a) < f64(b))
	case wasm.OpF64Gt:
		return b2i(f64(a) > f64(b))
	case wasm.OpF64Le:
		return b2i(f64(a) <= f64(b))
	case wasm.OpF64Ge:
		return b2i(f64(a) >= f64(b))

	case wasm.OpI32Add:
		return uint64(uint32(a) + uint32(b))
	case wasm.OpI32Sub:
		return uint64(uint32(a) - uint32(b))
	case wasm.OpI32Mul:
		return uint64(uint32(a) * uint32(b))
	case wasm.OpI32DivS:
		x, y := int32(a), int32(b)
		if y == 0 {
			trap(TrapDivByZero)
		}
		if x == math.MinInt32 && y == -1 {
			trap(TrapIntOverflow)
		}
		return uint64(uint32(x / y))
	case wasm.OpI32DivU:
		if uint32(b) == 0 {
			trap(TrapDivByZero)
		}
		return uint64(uint32(a) / uint32(b))
	case wasm.OpI32RemS:
		x, y := int32(a), int32(b)
		if y == 0 {
			trap(TrapDivByZero)
		}
		if x == math.MinInt32 && y == -1 {
			return 0
		}
		return uint64(uint32(x % y))
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

	case wasm.OpI64Add:
		return a + b
	case wasm.OpI64Sub:
		return a - b
	case wasm.OpI64Mul:
		return a * b
	case wasm.OpI64DivS:
		x, y := int64(a), int64(b)
		if y == 0 {
			trap(TrapDivByZero)
		}
		if x == math.MinInt64 && y == -1 {
			trap(TrapIntOverflow)
		}
		return uint64(x / y)
	case wasm.OpI64DivU:
		if b == 0 {
			trap(TrapDivByZero)
		}
		return a / b
	case wasm.OpI64RemS:
		x, y := int64(a), int64(b)
		if y == 0 {
			trap(TrapDivByZero)
		}
		if x == math.MinInt64 && y == -1 {
			return 0
		}
		return uint64(x % y)
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

	case wasm.OpF32Add:
		return f32v(f32(a) + f32(b))
	case wasm.OpF32Sub:
		return f32v(f32(a) - f32(b))
	case wasm.OpF32Mul:
		return f32v(f32(a) * f32(b))
	case wasm.OpF32Div:
		return f32v(f32(a) / f32(b))
	case wasm.OpF32Min:
		return f32v(float32(refMin(float64(f32(a)), float64(f32(b)))))
	case wasm.OpF32Max:
		return f32v(float32(refMax(float64(f32(a)), float64(f32(b)))))
	case wasm.OpF32Copysign:
		return f32v(float32(math.Copysign(float64(f32(a)), float64(f32(b)))))

	case wasm.OpF64Add:
		return f64v(f64(a) + f64(b))
	case wasm.OpF64Sub:
		return f64v(f64(a) - f64(b))
	case wasm.OpF64Mul:
		return f64v(f64(a) * f64(b))
	case wasm.OpF64Div:
		return f64v(f64(a) / f64(b))
	case wasm.OpF64Min:
		return f64v(refMin(f64(a), f64(b)))
	case wasm.OpF64Max:
		return f64v(refMax(f64(a), f64(b)))
	case wasm.OpF64Copysign:
		return f64v(math.Copysign(f64(a), f64(b)))
	}
	trapf("host function error", "refinterp: unhandled binary opcode %s", op)
	return 0
}

func refUnop(op wasm.Opcode, v Value) Value {
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
		return f32v(float32(math.Abs(float64(f32(v)))))
	case wasm.OpF32Neg:
		return v ^ 0x80000000
	case wasm.OpF32Ceil:
		return f32v(float32(math.Ceil(float64(f32(v)))))
	case wasm.OpF32Floor:
		return f32v(float32(math.Floor(float64(f32(v)))))
	case wasm.OpF32Trunc:
		return f32v(float32(math.Trunc(float64(f32(v)))))
	case wasm.OpF32Nearest:
		return f32v(float32(math.RoundToEven(float64(f32(v)))))
	case wasm.OpF32Sqrt:
		return f32v(float32(math.Sqrt(float64(f32(v)))))

	case wasm.OpF64Abs:
		return f64v(math.Abs(f64(v)))
	case wasm.OpF64Neg:
		return v ^ 0x8000000000000000
	case wasm.OpF64Ceil:
		return f64v(math.Ceil(f64(v)))
	case wasm.OpF64Floor:
		return f64v(math.Floor(f64(v)))
	case wasm.OpF64Trunc:
		return f64v(math.Trunc(f64(v)))
	case wasm.OpF64Nearest:
		return f64v(math.RoundToEven(f64(v)))
	case wasm.OpF64Sqrt:
		return f64v(math.Sqrt(f64(v)))

	case wasm.OpI32WrapI64:
		return uint64(uint32(v))
	case wasm.OpI32TruncF32S:
		return truncI32(float64(f32(v)))
	case wasm.OpI32TruncF32U:
		return truncU32(float64(f32(v)))
	case wasm.OpI32TruncF64S:
		return truncI32(f64(v))
	case wasm.OpI32TruncF64U:
		return truncU32(f64(v))
	case wasm.OpI64ExtendI32S:
		return uint64(int64(int32(v)))
	case wasm.OpI64ExtendI32U:
		return uint64(uint32(v))
	case wasm.OpI64TruncF32S:
		return truncI64(float64(f32(v)))
	case wasm.OpI64TruncF32U:
		return truncU64(float64(f32(v)))
	case wasm.OpI64TruncF64S:
		return truncI64(f64(v))
	case wasm.OpI64TruncF64U:
		return truncU64(f64(v))
	case wasm.OpF32ConvertI32S:
		return f32v(float32(int32(v)))
	case wasm.OpF32ConvertI32U:
		return f32v(float32(uint32(v)))
	case wasm.OpF32ConvertI64S:
		return f32v(float32(int64(v)))
	case wasm.OpF32ConvertI64U:
		return f32v(float32(v))
	case wasm.OpF32DemoteF64:
		return f32v(float32(f64(v)))
	case wasm.OpF64ConvertI32S:
		return f64v(float64(int32(v)))
	case wasm.OpF64ConvertI32U:
		return f64v(float64(uint32(v)))
	case wasm.OpF64ConvertI64S:
		return f64v(float64(int64(v)))
	case wasm.OpF64ConvertI64U:
		return f64v(float64(v))
	case wasm.OpF64PromoteF32:
		return f64v(float64(f32(v)))
	case wasm.OpI32ReinterpretF32, wasm.OpI64ReinterpretF64,
		wasm.OpF32ReinterpretI32, wasm.OpF64ReinterpretI64:
		return v

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
	trapf("host function error", "refinterp: unhandled unary opcode %s", op)
	return 0
}
