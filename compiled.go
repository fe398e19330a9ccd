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
// instrumented module, its metadata, and the hook plans (each hook's
// lowering, derived once) every session binds against. It is immutable and safe for concurrent use —
// one CompiledAnalysis can back any number of simultaneous Sessions, which
// is how one instrumentation pass serves N analyses or N instances (the
// paper's instrument-once, analyze-many workflow).
type CompiledAnalysis struct {
	engine *Engine
	reg    *interp.Registry // where sessions register/resolve named instances
	module *wasm.Module
	meta   *core.Metadata
	shared *wruntime.Shared

	encodeOnce sync.Once
	encoded    []byte
	encodeErr  error

	eventsOnce sync.Once
	events     *analysis.EventTable
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
// instrumentation, built at most once and shared by every stream.
func (c *CompiledAnalysis) EventTable() *EventTable {
	c.eventsOnce.Do(func() { c.events = c.meta.EventTable() })
	return c.events
}

// Module returns the instrumented module. Callers must treat it as
// read-only: it is shared by every session and instance of this
// CompiledAnalysis.
func (c *CompiledAnalysis) Module() *wasm.Module { return c.module }

// Metadata returns the instrumentation metadata (hook table, br_table
// records, index bookkeeping, static module info). Read-only, like Module.
func (c *CompiledAnalysis) Metadata() *core.Metadata { return c.meta }

// Info returns the static module information analyses receive.
func (c *CompiledAnalysis) Info() *ModuleInfo { return &c.meta.Info }

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
