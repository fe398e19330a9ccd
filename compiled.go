package wasabi

import (
	"fmt"
	"sync"

	"wasabi/internal/analysis"
	"wasabi/internal/binary"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	wruntime "wasabi/internal/runtime"
	"wasabi/internal/wasm"
)

// CompiledAnalysis is a module instrumented once for a hook set: the
// instrumented module, its metadata, the hook plans (each hook's lowering,
// derived once) every session binds against, and the interpreter's threaded
// code, compiled once per host shape (which imported functions a session
// binds as no-ops, callback trampolines, record encoders or plain host
// calls) by the first Session.Instantiate of that shape and linked by every
// later one. It is safe for concurrent use — one CompiledAnalysis can back
// any number of simultaneous Sessions, which is how one instrumentation
// pass serves N analyses or N instances (the paper's instrument-once,
// analyze-many workflow).
//
// The engine's instrumentation cache keeps the threaded code alive with the
// rest of the CompiledAnalysis: for a 230 KB module of 446 functions under
// AllCaps one shape adds 16.5 MB to the live heap. Engine.Uncache and the
// cache's FIFO eviction release it; sessions and instances keep the code
// they linked.
type CompiledAnalysis struct {
	engine *Engine
	module *wasm.Module
	meta   *core.Metadata
	shared *wruntime.Shared
	code   *interp.CompiledModule // threaded code per host shape, under the engine's Config

	encodeOnce sync.Once
	encoded    []byte
	encodeErr  error
}

// NewSession binds one analysis value to the compiled instrumentation. It
// fails with ErrNoHooks when the analysis implements no hook interface and
// declares no stream capabilities (EventStreamer), and when none of the
// hooks it could observe were instrumented (a session that could never see
// an event). Stream-native analyses additionally call Session.Stream before
// instantiating; without it their callback interfaces (if any) dispatch
// normally.
func (c *CompiledAnalysis) NewSession(a any) (*Session, error) {
	caps := analysis.CapsOf(a)
	if es, ok := a.(analysis.EventStreamer); ok {
		caps |= es.StreamCaps()
	}
	if caps == 0 {
		return nil, errNoHooksFor(a)
	}
	if caps.HookSet()&c.meta.HookSet == 0 {
		return nil, &NoHooksError{
			AnalysisType: fmt.Sprintf("%T", a),
			Detail: fmt.Sprintf("implements only %q, but the module was instrumented for %q",
				caps.HookSet().String(), c.meta.HookSet.String()),
		}
	}
	return &Session{
		compiled: c,
		analysis: a,
		rt:       wruntime.NewBound(c.meta, a, c.shared),
	}, nil
}

// EventTable returns the decode table of the event-stream surface for this
// instrumentation: the metadata's own hook table, shared by every stream.
func (c *CompiledAnalysis) EventTable() *EventTable { return &c.meta.EventTable }

// Module returns the instrumented module. Callers must treat it as
// read-only: it is shared by every session and instance of this
// CompiledAnalysis.
func (c *CompiledAnalysis) Module() *wasm.Module { return c.module }

// Metadata returns the instrumentation metadata (hook table, br_table
// records, index bookkeeping, static module info). Read-only, like Module.
func (c *CompiledAnalysis) Metadata() *core.Metadata { return c.meta }

// Info returns the static module information analyses receive.
func (c *CompiledAnalysis) Info() *ModuleInfo { return c.meta.Info }

// HookSet returns the hook kinds the module was instrumented for.
func (c *CompiledAnalysis) HookSet() HookSet { return c.meta.HookSet }

// Encode returns the instrumented module in the binary format, encoding at
// most once (concurrent and repeated calls share the result).
func (c *CompiledAnalysis) Encode() ([]byte, error) {
	c.encodeOnce.Do(func() {
		c.encoded, c.encodeErr = binary.Encode(c.module)
	})
	return c.encoded, c.encodeErr
}
