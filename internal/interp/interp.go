// Package interp is a WebAssembly (MVP) interpreter. It is the execution
// substrate of this reproduction: where the paper runs instrumented binaries
// in a browser engine, we run them here. The interpreter implements the
// complete MVP instruction set with spec trap semantics, linear memory,
// tables with indirect calls, imported host functions, and a start function.
package interp

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync/atomic"

	"wasabi/internal/failpoint"
	"wasabi/internal/wasm"
)

// Value is a raw 64-bit representation of any WebAssembly value: i32 values
// are zero-extended, i64 values are stored as-is, and floats are stored as
// their IEEE 754 bit patterns (f32 zero-extended).
type Value = uint64

// I32 converts a Go int32 to the stack representation.
func I32(v int32) Value { return uint64(uint32(v)) }

// I64 converts a Go int64 to the stack representation.
func I64(v int64) Value { return uint64(v) }

// F32 converts a Go float32 to the stack representation.
func F32(v float32) Value { return uint64(math.Float32bits(v)) }

// F64 converts a Go float64 to the stack representation.
func F64(v float64) Value { return math.Float64bits(v) }

// AsI32 extracts an i32 from the stack representation.
func AsI32(v Value) int32 { return int32(uint32(v)) }

// AsI64 extracts an i64 from the stack representation.
func AsI64(v Value) int64 { return int64(v) }

// AsF32 extracts an f32 from the stack representation.
func AsF32(v Value) float32 { return math.Float32frombits(uint32(v)) }

// AsF64 extracts an f64 from the stack representation.
func AsF64(v Value) float64 { return math.Float64frombits(v) }

// HostFunc is a function provided by the embedder (the "JavaScript side" in
// the paper's setting). The Wasabi runtime's low-level hooks are HostFuncs.
// Fn and Fast always receive exactly one argument per parameter of Type:
// Instantiate checks an import's type before wasm code can call it, and
// Invoke checks the argument count of an embedder's call, so neither needs
// a length check of its own.
//
// At least one of Fn and Fast must be set. Fast is the zero-copy hook-call
// convention, which both of the Wasabi runtime's dispatch backends use
// (callback trampolines and stream record encoders): the interpreter's
// direct host-call opcode passes it a window of the operand stack (args
// aliases stack[sp-n:sp]) instead of copying the arguments into a fresh
// slice. The aliasing rules for Fast implementations: args is read-only,
// only valid for the duration of the call, and must not be retained or
// mutated — the same backing array is reused by the very next instruction.
// Fast has no error result: it reports failure by panicking with a *Trap,
// as the interpreter's own traps do, and the invocation root recovers it
// into the error Invoke returns. Fast is only consulted for
// result-less signatures; functions with results always go through Fn.
type HostFunc struct {
	Type wasm.FuncType
	Fn   func(inst *Instance, args []Value) ([]Value, error)

	// Fast, when non-nil, is preferred by the threaded-code host-call path
	// for result-less signatures. See the aliasing and trap rules above.
	Fast func(inst *Instance, args []Value)

	// NoOp declares the function observably side-effect free (the runtime
	// sets it for hooks the analysis does not implement). Calls to a no-op
	// host function are elided at compile time, including the lowering of
	// their arguments where the compiler can prove the pushes pure
	// (dead-hook elision). Only honored for result-less signatures.
	NoOp bool
}

// Imports maps module name → field name → provided value. Supported values:
// *HostFunc, *Memory, *Table, and Global (for imported globals).
type Imports map[string]map[string]any

// Global is an instantiated global variable.
type Global struct {
	Type wasm.GlobalType
	Val  Value
}

// funcKind discriminates the two function representations.
type funcInst struct {
	typeIdx uint32 // index into instance types
	host    *HostFunc
	code    *compiledFunc // nil for host functions
}

// compiledFunc is a defined function lowered to the direct-threaded internal
// form: a flat instruction array with pre-resolved branch targets, packed
// stack adjustments, fused superinstructions, and a precomputed operand-stack
// high-water mark (see compile.go).
type compiledFunc struct {
	sig       wasm.FuncType
	numParams int
	numLocals int // params + declared locals
	code      []instr
	brPool    []brEntry // pre-resolved br_table targets
	maxStack  int       // operand-stack high-water mark
}

// frame is one reusable interpreter activation record: the locals, value
// stack, and result buffer of a call at one nesting depth. The instance
// keeps an arena of frames indexed by call depth, so repeated calls allocate
// nothing once the arena's buffers have grown to steady state.
type frame struct {
	locals []Value
	stack  []Value
	result []Value
}

// Instance is an instantiated module ready for invocation. An instance is
// not safe for concurrent use: the frame arena (like globals and memory) is
// per-instance mutable state.
type Instance struct {
	Module  *wasm.Module
	Memory  *Memory
	Table   *Table
	Globals []*Global

	funcs []funcInst

	// frames is the reusable frame arena, indexed by callDepth-1. It grows
	// lazily with actual call depth, not to MaxCallDepthDefault.
	frames []*frame

	// callDepth guards against runaway recursion.
	callDepth int

	// Containment state (see Config). fuel is the remaining budget consumed
	// by the guard instructions of a Config.Guarded instance (MaxInt64 when
	// unlimited); intr is the asynchronous interrupt flag those same guards
	// check — the ONLY Instance field that may be touched from another
	// goroutine. curFunc/curPC are the best-effort execution context for
	// RuntimeFault: the innermost active function and the source offset of
	// the last executed guard.
	fuel    int64
	intr    atomic.Uint32
	curFunc uint32
	curPC   uint32

	// onTopReturn, when set, runs after every top-level call completes —
	// err is nil on normal return, the *Trap or *RuntimeFault otherwise. The
	// Wasabi runtime's stream sessions flush their partial event batch here
	// (so consumers observe every event of an Invoke without waiting for the
	// next one) and tear the stream down on failure.
	onTopReturn func(err error)
}

// frameAt returns the reusable frame for depth d, growing the arena lazily.
func (inst *Instance) frameAt(d int) *frame {
	for len(inst.frames) <= d {
		inst.frames = append(inst.frames, &frame{})
	}
	return inst.frames[d]
}

// Instantiate allocates and initializes an instance: resolves imports,
// allocates table/memory/globals, applies element and data segments, and
// runs the start function.
func Instantiate(m *wasm.Module, imports Imports) (*Instance, error) {
	return InstantiateWith(nil, "", m, imports, Config{})
}

// InstantiateWith is Instantiate with cross-instance linking under an
// explicit containment Config (guarded compilation and the memory cap).
// Imports are resolved first from the explicit Imports map and then — when
// the import module name matches a registered instance — from that
// instance's exports. On success the new instance is registered in reg
// under name (name "" stays anonymous). The name is reserved for the
// duration of the call, so concurrent instantiations cannot claim the same
// name. Limit violations at instantiation time (a declared memory minimum
// beyond the cap, a table minimum beyond DefaultMaxTableElems, a function
// body whose operand stack exceeds DefaultMaxFuncStack) fail with errors
// wrapping ErrLimit. It compiles m afresh; embedders that instantiate one
// module many times keep a CompiledModule instead, which compiles each host
// shape once.
func InstantiateWith(reg *Registry, name string, m *wasm.Module, imports Imports, cfg Config) (*Instance, error) {
	return NewCompiledModule(m, cfg).Instantiate(reg, name, imports)
}

// Instantiate allocates and initializes an instance: resolves imports,
// links the compiled code of their host shape (compiling it on first use),
// allocates table/memory/globals, applies element and data segments, and
// runs the start function. Imports resolve first from the explicit Imports
// map and then — when the import module name matches an instance registered
// in reg — from that instance's exports. On success the new instance is
// registered in reg under name (name "" stays anonymous). Limit violations
// fail with errors wrapping ErrLimit (see InstantiateWith).
func (cm *CompiledModule) Instantiate(reg *Registry, name string, imports Imports) (inst *Instance, err error) {
	if name != "" && reg == nil {
		return nil, fmt.Errorf("interp: named instantiation %q requires a registry", name)
	}
	committed := false
	if name != "" {
		if err := reg.reserve(name); err != nil {
			return nil, err
		}
		// Release the reservation on every non-success exit, including a
		// panic out of a host import or start function (err is still nil
		// while unwinding, so commit must NOT key off err == nil).
		defer func() {
			if !committed {
				reg.release(name)
			}
		}()
	}

	m, cfg := cm.m, &cm.cfg
	inst = &Instance{
		Module: m,
		fuel:   cfg.initialFuel(),
		funcs:  make([]funcInst, 0, cm.ix.NumFuncs()),
	}

	lookup := func(mod, name string) (any, error) {
		if fields, ok := imports[mod]; ok {
			if v, ok := fields[name]; ok {
				return v, nil
			}
		}
		if reg != nil {
			if provider, ok := reg.Lookup(mod); ok {
				v, err := provider.Export(name)
				if err != nil {
					return nil, fmt.Errorf("interp: import from instance %q: %w", mod, err)
				}
				return v, nil
			}
		}
		if _, ok := imports[mod]; ok {
			return nil, fmt.Errorf("interp: unknown import %q.%q", mod, name)
		}
		return nil, fmt.Errorf("interp: unknown import module %q", mod)
	}

	shape := make([]hostCall, 0, cm.ix.NumImportedFuncs())
	for _, imp := range m.Imports {
		v, err := lookup(imp.Module, imp.Name)
		if err != nil {
			return nil, err
		}
		switch imp.Kind {
		case wasm.ExternFunc:
			hf, ok := v.(*HostFunc)
			if !ok {
				return nil, fmt.Errorf("interp: import %q.%q is not a function", imp.Module, imp.Name)
			}
			if int(imp.TypeIdx) >= len(m.Types) {
				return nil, fmt.Errorf("interp: import %q.%q type index out of range", imp.Module, imp.Name)
			}
			want := m.Types[imp.TypeIdx]
			if !hf.Type.Equal(want) {
				return nil, fmt.Errorf("interp: import %q.%q type mismatch: want %s, have %s", imp.Module, imp.Name, want, hf.Type)
			}
			if hf.Fn == nil && hf.Fast == nil {
				return nil, fmt.Errorf("interp: import %q.%q has neither Fn nor Fast", imp.Module, imp.Name)
			}
			if hf.Fn == nil && len(hf.Type.Results) != 0 {
				return nil, fmt.Errorf("interp: import %q.%q: Fast-only host functions must be result-less", imp.Module, imp.Name)
			}
			inst.funcs = append(inst.funcs, funcInst{typeIdx: imp.TypeIdx, host: hf})
			shape = append(shape, hostCallOf(hf))
		case wasm.ExternMemory:
			mem, ok := v.(*Memory)
			if !ok {
				return nil, fmt.Errorf("interp: import %q.%q is not a memory", imp.Module, imp.Name)
			}
			inst.Memory = mem
		case wasm.ExternTable:
			tbl, ok := v.(*Table)
			if !ok {
				return nil, fmt.Errorf("interp: import %q.%q is not a table", imp.Module, imp.Name)
			}
			inst.Table = tbl
		case wasm.ExternGlobal:
			g, ok := v.(*Global)
			if !ok {
				return nil, fmt.Errorf("interp: import %q.%q is not a global", imp.Module, imp.Name)
			}
			inst.Globals = append(inst.Globals, g)
		}
	}

	// Defined functions: the code compiled for this host shape, so calls to
	// Fast-convention imports take the zero-copy opcode and calls to no-op
	// hooks are elided outright.
	code, err := cm.code(shape)
	if err != nil {
		return nil, err
	}
	for i := range m.Funcs {
		inst.funcs = append(inst.funcs, funcInst{typeIdx: m.Funcs[i].TypeIdx, code: code[i]})
	}

	// Defined table and memory, bounded by their caps: a declared minimum
	// beyond the cap is refused outright, and the memory cap carries into
	// Grow so memory.grow cannot exceed it either.
	for _, t := range m.Tables {
		if t.Min > DefaultMaxTableElems {
			return nil, fmt.Errorf("%w: table minimum %d elements exceeds limit %d", ErrLimit, t.Min, DefaultMaxTableElems)
		}
		inst.Table = NewTable(t)
	}
	for _, mem := range m.Memories {
		if mem.Min > cfg.maxMemoryPages() {
			return nil, fmt.Errorf("%w: memory minimum %d pages exceeds limit %d", ErrLimit, mem.Min, cfg.maxMemoryPages())
		}
		inst.Memory = NewMemory(mem)
		inst.Memory.Cap = cfg.MaxMemoryPages
	}

	// Defined globals.
	for i := range m.Globals {
		g := &m.Globals[i]
		val, err := inst.evalConstExpr(g.Init)
		if err != nil {
			return nil, fmt.Errorf("interp: global %d init: %w", i, err)
		}
		inst.Globals = append(inst.Globals, &Global{Type: g.Type, Val: val})
	}

	// Element segments.
	for i, e := range m.Elems {
		if inst.Table == nil {
			return nil, fmt.Errorf("interp: elem segment %d without table", i)
		}
		off, err := inst.evalConstExpr(e.Offset)
		if err != nil {
			return nil, fmt.Errorf("interp: elem %d offset: %w", i, err)
		}
		start := uint32(off)
		if uint64(start)+uint64(len(e.Funcs)) > uint64(len(inst.Table.Elems)) {
			return nil, fmt.Errorf("interp: elem segment %d out of table bounds", i)
		}
		for j, fidx := range e.Funcs {
			inst.Table.Elems[start+uint32(j)] = int64(fidx)
		}
	}

	// Data segments.
	for i, d := range m.Datas {
		if inst.Memory == nil {
			return nil, fmt.Errorf("interp: data segment %d without memory", i)
		}
		off, err := inst.evalConstExpr(d.Offset)
		if err != nil {
			return nil, fmt.Errorf("interp: data %d offset: %w", i, err)
		}
		start := uint32(off)
		if uint64(start)+uint64(len(d.Data)) > uint64(len(inst.Memory.Data)) {
			return nil, fmt.Errorf("interp: data segment %d out of memory bounds", i)
		}
		copy(inst.Memory.Data[start:], d.Data)
	}

	// Start function.
	if m.Start != nil {
		if _, err := inst.call(*m.Start, nil); err != nil {
			return nil, fmt.Errorf("interp: start function: %w", err)
		}
	}
	if name != "" {
		// Checked before commit so the deferred release still frees the
		// reservation: an injected commit fault must not leak the name.
		if err := failpoint.Inject(failpoint.RegistryCommit); err != nil {
			return nil, err
		}
		reg.commit(name, inst)
		committed = true
	}
	return inst, nil
}

func (inst *Instance) evalConstExpr(expr []wasm.Instr) (Value, error) {
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
		return inst.Globals[in.Idx].Val, nil
	}
	return 0, fmt.Errorf("non-constant instruction %s", in.Op)
}

// Invoke calls an exported function by name.
func (inst *Instance) Invoke(name string, args ...Value) ([]Value, error) {
	idx, ok := inst.Module.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("interp: no exported function %q", name)
	}
	return inst.call(idx, args)
}

// InvokeIdx calls the function at the given index in the function index space.
func (inst *Instance) InvokeIdx(idx uint32, args ...Value) ([]Value, error) {
	return inst.call(idx, args)
}

// FuncSig returns the signature of the function at the given index.
func (inst *Instance) FuncSig(idx uint32) (wasm.FuncType, error) {
	if int(idx) >= len(inst.funcs) {
		return wasm.FuncType{}, fmt.Errorf("interp: function index %d out of range", idx)
	}
	return inst.Module.Types[inst.funcs[idx].typeIdx], nil
}

// SetTopReturnHook installs f to run after every top-level call completes —
// err is nil on normal return and the *Trap or *RuntimeFault otherwise (see
// the field comment). Pass nil to clear.
func (inst *Instance) SetTopReturnHook(f func(err error)) { inst.onTopReturn = f }

// SetFuel sets the remaining fuel budget. Fuel is consumed by the guard
// instructions of a Guarded instance (one unit per source instruction) and
// persists across invocations: top up between calls to grant a fresh budget.
// Values above MaxInt64 are clamped. No-op semantics on an unguarded
// instance (nothing consumes fuel there).
func (inst *Instance) SetFuel(n uint64) {
	if n > math.MaxInt64 {
		n = math.MaxInt64
	}
	inst.fuel = int64(n)
}

// Fuel returns the remaining fuel budget.
func (inst *Instance) Fuel() uint64 {
	if inst.fuel < 0 {
		return 0
	}
	return uint64(inst.fuel)
}

// Interrupt requests asynchronous interruption: the next guard instruction
// the instance executes raises TrapInterrupted. It is the one Instance
// method safe to call from another goroutine, and the flag stays set (every
// subsequent invocation traps immediately) until ClearInterrupt. On an
// unguarded instance it only affects future guarded behavior — nothing
// checks the flag mid-run.
func (inst *Instance) Interrupt() { inst.intr.Store(1) }

// ClearInterrupt re-arms an interrupted instance. Producer-side: call it
// only while no code of the instance runs.
func (inst *Instance) ClearInterrupt() { inst.intr.Store(0) }

// ResolveTable returns the function index stored at table slot i, or -1.
func (inst *Instance) ResolveTable(i uint32) int64 {
	if inst.Table == nil || int(i) >= len(inst.Table.Elems) {
		return -1
	}
	return inst.Table.Elems[i]
}

// call invokes a function by index, catching traps and converting every
// other panic into a *RuntimeFault (fault isolation: a host-function bug or
// an interpreter gap fails the call, never the host process). The returned
// slice is a copy owned by the caller: the internal result buffers live in
// the frame arena and are reused by later calls.
//
// call is the embedder boundary, so it checks the argument count against
// the callee's signature before any code runs: a defined function would
// take surplus arguments as the initial values of its declared locals, and
// a host function would index past a short vector. A mismatch is an error
// that runs nothing and fires no top-return hook. Calls from wasm code need
// no check; validation and Instantiate's import check fix their counts.
func (inst *Instance) call(idx uint32, args []Value) (results []Value, err error) {
	if sig, err := inst.FuncSig(idx); err == nil && len(args) != len(sig.Params) {
		return nil, fmt.Errorf("interp: function %d (%s) called with %d arguments, want %d",
			idx, inst.Module.FuncName(idx), len(args), len(sig.Params))
	}
	savedDepth := inst.callDepth
	// Registered before the trap recovery below, so it runs after it
	// (LIFO): the hook observes the instance in its settled state. Only the
	// outermost call fires it.
	defer func() {
		if savedDepth == 0 && inst.onTopReturn != nil {
			inst.onTopReturn(err)
		}
	}()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// Unwind the call-depth accounting past the aborted frames so the
		// instance stays usable after a trap or fault.
		inst.callDepth = savedDepth
		results = nil
		switch p := r.(type) {
		case *Trap:
			err = p
		case *RuntimeFault:
			// An internal faultf panic: attach the execution context.
			p.FuncIdx = inst.curFunc
			p.FuncName = inst.Module.FuncNames[inst.curFunc]
			p.PC = inst.curPC
			p.Stack = debug.Stack()
			err = p
		default:
			err = &RuntimeFault{
				FuncIdx:  inst.curFunc,
				FuncName: inst.Module.FuncNames[inst.curFunc],
				PC:       inst.curPC,
				Panic:    r,
				Stack:    debug.Stack(),
			}
		}
	}()
	if res := inst.invoke(idx, args); len(res) > 0 {
		results = append([]Value(nil), res...)
	}
	return results, nil
}

// invoke is the trap-panicking internal call path.
func (inst *Instance) invoke(idx uint32, args []Value) []Value {
	if int(idx) >= len(inst.funcs) {
		trapf(TrapUndefinedElement, "function index %d out of range", idx)
	}
	fi := &inst.funcs[idx]
	if fi.host != nil {
		return inst.callHost(fi.host, args)
	}
	inst.callDepth++
	if inst.callDepth > MaxCallDepthDefault {
		trap(TrapStackExhausted)
	}
	savedFunc := inst.curFunc
	inst.curFunc = idx
	fr := inst.frameAt(inst.callDepth - 1)
	res := inst.exec(fi.code, args, fr)
	inst.curFunc = savedFunc
	inst.callDepth--
	return res
}

// callHost invokes a host function, converting its error into a trap panic.
// Shared by invoke and exec's generic host-call opcode (iCallHost). Fast-only
// host functions (no Fn) are result-less by the Instantiate-time check.
func (inst *Instance) callHost(hf *HostFunc, args []Value) []Value {
	// Fault-injection seam for the host-call boundary: an injected fault is
	// indistinguishable from the host function failing, i.e. a typed trap.
	hostErr(failpoint.Inject(failpoint.HostCall))
	if hf.Fn == nil {
		hf.Fast(inst, args)
		return nil
	}
	res, err := hf.Fn(inst, args)
	hostErr(err)
	return res
}

// hostErr converts a host-function error into a trap panic.
func hostErr(err error) {
	if err == nil {
		return
	}
	if t, ok := err.(*Trap); ok {
		panic(t)
	}
	panic(&Trap{Code: "host function error", Info: err.Error(), Cause: err})
}
