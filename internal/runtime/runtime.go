// Package runtime is the Wasabi runtime (the right-hand side of Figure 2 in
// the paper): it provides the imported low-level hook functions to the
// instrumented module and dispatches them to the high-level hooks of the
// user's analysis. On the way it re-joins split i64 values, resolves
// indirect-call table indices to the actually called function, and replays
// the end hooks of blocks traversed by br_table branches, whose set is only
// known at runtime (paper §2.4.5).
//
// Dispatch is specialized per generated hook: NewShared derives one hook
// plan per core.HookSpec (plan.go), and Imports() builds one trampoline
// closure (trampoline.go) or record encoder (encoder.go) per plan instead of
// funneling every call through a generic Kind switch. Hooks the analysis
// does not observe are bound to a shared no-op that the interpreter elides
// at compile time.
package runtime

import (
	"math/bits"
	"sync"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/interp"
)

// Shared is the per-instrumentation state every session's runtime reuses:
// the hook plans and the engine's borrowed-buffer pool. A CompiledAnalysis
// computes it once; binding a new session then only captures callbacks,
// never re-derives a hook's lowering.
type Shared struct {
	Pool  *ValuePool
	plans []hookPlan // indexed like Metadata.Hooks
}

// NewShared derives the hook plans of meta. A nil pool falls back to the
// process-wide default pool.
func NewShared(meta *core.Metadata, pool *ValuePool) *Shared {
	if pool == nil {
		pool = &defaultPool
	}
	// br_table end replays reference the end hook of their block kind when
	// one was generated; when the module was instrumented without end hooks
	// (the replay data lives in the br_table metadata either way) they carry
	// the EventSynth sentinel and decode by Kind and block kind code.
	var endHook [5]uint16
	for i := range endHook {
		endHook[i] = analysis.EventSynth
	}
	for i := range meta.Hooks {
		if meta.Hooks[i].Kind == analysis.KindEnd {
			endHook[meta.Hooks[i].Block.Code()] = uint16(i)
		}
	}
	plans := make([]hookPlan, len(meta.Hooks))
	for i := range meta.Hooks {
		plans[i] = newPlan(&meta.Hooks[i], i, endHook)
	}
	return &Shared{Pool: pool, plans: plans}
}

// Runtime dispatches low-level hook calls to one analysis.
type Runtime struct {
	meta   *core.Metadata
	shared *Shared
	inst   *interp.Instance // bound after instantiation; fallback for table resolution
	caps   analysis.Cap     // which callbacks the analysis implements

	// Stream mode (SetEmitter): hooks in streamCaps compile to record
	// encoders writing packed events into emitter instead of callback
	// trampolines. Exclusive with callback dispatch per runtime.
	emitter    *Emitter
	streamCaps analysis.Cap

	importsOnce sync.Once
	imports     interp.Imports // compiled trampolines/encoders, built once per runtime

	// cbs holds the analysis's bound callback per Cap bit (indexed by the
	// bit's position), nil where it does not implement the interface.
	cbs [numCaps]any
}

// New creates a runtime dispatching to the given analysis, with its own
// freshly derived shared state. Sessions created through the engine API use
// NewBound instead, so all sessions of one CompiledAnalysis reuse one set of
// hook plans and one buffer pool.
func New(meta *core.Metadata, a any) *Runtime {
	return NewBound(meta, a, NewShared(meta, nil))
}

// NewBound creates a runtime dispatching to the given analysis, binding it
// against precomputed shared state. If the analysis implements
// analysis.ModuleInfoReceiver it receives the module info now.
func NewBound(meta *core.Metadata, a any, shared *Shared) *Runtime {
	r := &Runtime{meta: meta, shared: shared, caps: analysis.CapsOf(a)}
	bind := func(c analysis.Cap, cb any) { r.cbs[capIndex(c)] = cb }
	if v, ok := a.(analysis.NopHooker); ok {
		bind(analysis.CapNop, v.Nop)
	}
	if v, ok := a.(analysis.UnreachableHooker); ok {
		bind(analysis.CapUnreachable, v.Unreachable)
	}
	if v, ok := a.(analysis.IfHooker); ok {
		bind(analysis.CapIf, v.If)
	}
	if v, ok := a.(analysis.BrHooker); ok {
		bind(analysis.CapBr, v.Br)
	}
	if v, ok := a.(analysis.BrIfHooker); ok {
		bind(analysis.CapBrIf, v.BrIf)
	}
	if v, ok := a.(analysis.BrTableHooker); ok {
		bind(analysis.CapBrTable, v.BrTable)
	}
	if v, ok := a.(analysis.BeginHooker); ok {
		bind(analysis.CapBegin, v.Begin)
	}
	if v, ok := a.(analysis.EndHooker); ok {
		bind(analysis.CapEnd, v.End)
	}
	if v, ok := a.(analysis.ConstHooker); ok {
		bind(analysis.CapConst, v.Const)
	}
	if v, ok := a.(analysis.DropHooker); ok {
		bind(analysis.CapDrop, v.Drop)
	}
	if v, ok := a.(analysis.SelectHooker); ok {
		bind(analysis.CapSelect, v.Select)
	}
	if v, ok := a.(analysis.UnaryHooker); ok {
		bind(analysis.CapUnary, v.Unary)
	}
	if v, ok := a.(analysis.BinaryHooker); ok {
		bind(analysis.CapBinary, v.Binary)
	}
	if v, ok := a.(analysis.LocalHooker); ok {
		bind(analysis.CapLocal, v.Local)
	}
	if v, ok := a.(analysis.GlobalHooker); ok {
		bind(analysis.CapGlobal, v.Global)
	}
	if v, ok := a.(analysis.LoadHooker); ok {
		bind(analysis.CapLoad, v.Load)
	}
	if v, ok := a.(analysis.StoreHooker); ok {
		bind(analysis.CapStore, v.Store)
	}
	if v, ok := a.(analysis.MemorySizeHooker); ok {
		bind(analysis.CapMemorySize, v.MemorySize)
	}
	if v, ok := a.(analysis.MemoryGrowHooker); ok {
		bind(analysis.CapMemoryGrow, v.MemoryGrow)
	}
	if v, ok := a.(analysis.CallPreHooker); ok {
		bind(analysis.CapCallPre, v.CallPre)
	}
	if v, ok := a.(analysis.CallPostHooker); ok {
		bind(analysis.CapCallPost, v.CallPost)
	}
	if v, ok := a.(analysis.ReturnHooker); ok {
		bind(analysis.CapReturn, v.Return)
	}
	if v, ok := a.(analysis.StartHooker); ok {
		bind(analysis.CapStart, v.Start)
	}
	if v, ok := a.(analysis.BlockCoverageHooker); ok {
		bind(analysis.CapBlockCoverage, v.BlockCovered)
	}
	if v, ok := a.(analysis.ModuleInfoReceiver); ok {
		v.SetModuleInfo(&meta.Info)
	}
	return r
}

// capIndex is the position of capability bit c, its callback's index in
// Runtime.cbs.
func capIndex(c analysis.Cap) int { return bits.TrailingZeros32(uint32(c)) }

// BindInstance gives the runtime access to the most recently instantiated
// module, used as a fallback to resolve indirect-call table indices when a
// hook is invoked without an instance (the interpreter always passes the
// calling instance, which takes precedence — so with multiple instances per
// session, each hook resolves against the instance that fired it).
func (r *Runtime) BindInstance(inst *interp.Instance) { r.inst = inst }

// SetEmitter switches the runtime to stream dispatch: Imports() compiles
// record encoders (encoder.go) for the hooks selected by caps, writing
// packed event records into em, and binds every other hook to an elidable
// no-op. Callback dispatch is disabled for this runtime. Must be called
// before Imports() is first consulted (i.e. before the session
// instantiates); the public layer enforces the ordering.
func (r *Runtime) SetEmitter(em *Emitter, caps analysis.Cap) {
	r.emitter = em
	r.streamCaps = caps
}

// Imports returns the host imports providing every generated low-level hook
// under the core.HookModule namespace, each bound to its compiled trampoline
// (zero-copy Fast convention) — or, in stream mode, to its compiled record
// encoder (Emit convention). A hook none of whose callbacks (or stream
// capabilities) is present binds to the shared no-op and is marked NoOp, so
// the interpreter elides its call sites. Merge the imports with the
// program's own before instantiation. The dispatchers are compiled on the
// first call and reused: a session instantiating N instances binds them once.
func (r *Runtime) Imports() interp.Imports {
	r.importsOnce.Do(func() {
		caps := r.caps
		if r.emitter != nil {
			caps = r.streamCaps
		}
		plans := r.shared.plans
		fields := make(map[string]any, len(plans))
		for i := range plans {
			p := &plans[i]
			hf := &interp.HostFunc{Type: p.typ}
			switch {
			case !caps.HasAny(p.live):
				hf.Fast, hf.NoOp = nopHook, true
			case r.emitter != nil:
				hf.Emit = r.compileEncoder(p)
			default:
				hf.Fast = r.compileTrampoline(p)
			}
			fields[p.name] = hf
		}
		r.imports = interp.Imports{core.HookModule: fields}
	})
	return r.imports
}

// TrapInvalidMetadata is the trap code reported when an instrumented module
// references instrumentation metadata that does not exist (corrupted or
// mismatched core.Metadata), or calls a hook with a mismatched argument
// vector.
const TrapInvalidMetadata = "invalid instrumentation metadata"
