// Package runtime is the Wasabi runtime (the right-hand side of Figure 2 in
// the paper): it provides the imported low-level hook functions to the
// instrumented module and dispatches them to the high-level hooks of the
// user's analysis. On the way it re-joins split i64 values, resolves
// indirect-call table indices to the actually called function, and replays
// the end hooks of blocks traversed by br_table branches, whose set is only
// known at runtime (paper §2.4.5).
//
// Dispatch is specialized per generated hook: NewShared derives one hook
// plan per analysis.EventSpec (plan.go), and Imports() builds one trampoline
// closure (trampoline.go) or record encoder (encoder.go) per plan instead of
// funneling every call through a generic Kind switch. Hooks the analysis
// does not observe are bound to a shared no-op that the interpreter elides
// at compile time.
package runtime

import (
	"sync"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/interp"
)

// Shared is the per-instrumentation state every session's runtime reuses:
// the hook plans. A CompiledAnalysis computes it once; binding a new
// session then only captures callbacks, never re-derives a hook's lowering.
type Shared struct {
	plans []hookPlan // indexed like Metadata.Specs
}

// NewShared derives the hook plans of meta.
func NewShared(meta *core.Metadata) *Shared {
	// br_table end replays reference the end hook of their block kind when
	// one was generated; when the module was instrumented without end hooks
	// (the replay data lives in the br_table metadata either way) they carry
	// the EventSynth sentinel and decode by Kind and block kind code.
	var endHook [analysis.NumBlockKinds]uint16
	for i := range endHook {
		endHook[i] = analysis.EventSynth
	}
	for i := range meta.Specs {
		if meta.Specs[i].Kind == analysis.KindEnd {
			endHook[meta.Specs[i].Block.Code()] = uint16(i)
		}
	}
	plans := make([]hookPlan, len(meta.Specs))
	for i := range meta.Specs {
		plans[i] = newPlan(&meta.Specs[i], i, endHook)
	}
	return &Shared{plans: plans}
}

// Runtime dispatches low-level hook calls to one analysis.
type Runtime struct {
	meta   *core.Metadata
	shared *Shared
	caps   analysis.Cap       // which callbacks the analysis implements
	cbs    analysis.Callbacks // those callbacks, bound to the analysis
	bufs   buffers            // the borrowed vectors of slice-carrying callbacks

	// Stream mode (SetEmitter): hooks in streamCaps compile to record
	// encoders writing packed events into emitter instead of callback
	// trampolines. Exclusive with callback dispatch per runtime.
	emitter    *Emitter
	streamCaps analysis.Cap

	importsOnce sync.Once
	imports     interp.Imports // compiled trampolines/encoders, built once per runtime
}

// New creates a runtime dispatching to the given analysis, with its own
// freshly derived shared state. Sessions created through the engine API use
// NewBound instead, so all sessions of one CompiledAnalysis reuse one set of
// hook plans.
func New(meta *core.Metadata, a any) *Runtime {
	return NewBound(meta, a, NewShared(meta))
}

// NewBound creates a runtime dispatching to the given analysis, binding it
// against precomputed shared state. If the analysis implements
// analysis.ModuleInfoReceiver it receives the module info now.
func NewBound(meta *core.Metadata, a any, shared *Shared) *Runtime {
	r := &Runtime{meta: meta, shared: shared}
	r.cbs, r.caps = analysis.Bind(a)
	if v, ok := a.(analysis.ModuleInfoReceiver); ok {
		v.SetModuleInfo(meta.Info)
	}
	return r
}

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
// under the core.HookModule namespace, each bound through the zero-copy Fast
// convention to its compiled trampoline — or, in stream mode, to its
// compiled record encoder. A hook none of whose callbacks (or stream
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
				hf.Fast = r.compileEncoder(p)
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
// references instrumentation metadata that does not exist (a br_table
// metadata index out of range: corrupted or mismatched core.Metadata).
const TrapInvalidMetadata = "invalid instrumentation metadata"
