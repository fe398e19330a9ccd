package wasabi

import (
	"context"
	"fmt"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	wruntime "wasabi/internal/runtime"
	"wasabi/internal/wasi"
	"wasabi/internal/wasm"
)

// Session binds one analysis value to a CompiledAnalysis and owns the
// instances it instantiates. Hook events from every instance of the session
// dispatch to the one analysis value — through callbacks by default, or as
// packed record batches after Session.Stream. A Session (like the instances
// it creates) must be driven from one goroutine at a time; run concurrent
// workloads by giving each goroutine its own Session off the shared
// CompiledAnalysis. Close a session when done so its named instances leave
// the engine registry and its stream buffers are released.
type Session struct {
	compiled *CompiledAnalysis
	analysis any
	rt       *wruntime.Runtime

	names        []string // instance names this session registered
	stream       *Fabric  // non-nil after Stream() or Fanout()
	instantiated bool
	closed       bool

	// wasiSys is the session's preview1 state (WithWASI), created at the
	// first Instantiate and shared by the session's instances.
	wasiSys *wasi.System
}

// Instantiate instantiates the instrumented module: the generated hook
// imports are merged with the program's own imports, unresolved imports fall
// back to the engine's named instances (so modules can import each other's
// exports), and — when name is non-empty — the new instance is registered
// under name for later instantiations to link against (Session.Close
// unregisters it). Call it repeatedly for multiple instances of the same
// instrumented module. The first instance of a host shape compiles the
// module's threaded code; every later one, of this or any session of the
// CompiledAnalysis, links it (see CompiledAnalysis).
func (s *Session) Instantiate(name string, programImports interp.Imports) (*interp.Instance, error) {
	if s.closed {
		return nil, fmt.Errorf("%w: Instantiate", ErrSessionClosed)
	}
	// A stream-only analysis (EventStreamer without callback interfaces)
	// observes nothing unless its stream is open: refuse the silent no-op,
	// like every other unobservable-analysis path.
	if _, streamOnly := s.analysis.(analysis.EventStreamer); streamOnly &&
		s.stream == nil && analysis.CapsOf(s.analysis) == 0 {
		return nil, &NoHooksError{
			AnalysisType: fmt.Sprintf("%T", s.analysis),
			Detail:       "analysis is stream-only; call Session.Stream before Instantiate",
		}
	}
	if name == core.HookModule {
		return nil, &HookCollisionError{Name: name, Reason: "is the generated hook import namespace, so an instance cannot register under it"}
	}
	if _, clash := programImports[core.HookModule]; clash {
		return nil, &HookCollisionError{Name: core.HookModule, Reason: "is provided by the program imports, but the instrumented module resolves its generated hooks from it"}
	}
	merged := make(interp.Imports, len(programImports)+2)
	// WithWASI: the session's preview1 provider resolves the guest's
	// wasi_snapshot_preview1 imports — unless the program imports provide
	// that module themselves, which wins (an embedder can replace the whole
	// world view).
	if wi := s.wasiImports(); wi != nil {
		if _, overridden := programImports[wasi.ModuleName]; !overridden {
			merged[wasi.ModuleName] = wi
		}
	}
	for mod, fields := range programImports {
		merged[mod] = fields
	}
	for mod, fields := range s.rt.Imports() {
		merged[mod] = fields
	}
	s.instantiated = true
	inst, err := s.compiled.code.Instantiate(s.compiled.engine.reg, name, merged)
	if err != nil {
		return nil, err
	}
	if name != "" {
		s.names = append(s.names, name)
	}
	// Stream flush point and teardown: publish the partial batch whenever a
	// top-level call into this instance completes (normally or not), and
	// when the call failed — trap or fault — end the stream with that error
	// so a consumer blocked in Next/Serve observes the failure (Stream.Err)
	// instead of waiting forever. A host-side emitter fault has already
	// ended the stream with its own error.
	if s.stream != nil {
		em := s.stream.em
		inst.SetTopReturnHook(func(err error) {
			// The hook runs after Instance.call's panic containment (it must
			// observe the settled instance), so a host-side panic here would
			// escape Invoke raw: degrade it to a terminal stream error.
			defer func() {
				if r := recover(); r != nil {
					em.Fail(fmt.Errorf("wasabi: stream flush panic: %v", r))
				}
			}()
			em.Flush()
			if err != nil {
				em.Fail(err)
			}
		})
	}
	return inst, nil
}

// InvokeContext is Instance.InvokeInterruptible for an instance of this
// session: on cancellation or deadline expiry both the instance and the
// session's event stream (if any) are interrupted, so a producer wedged on a
// lagging consumer unblocks too. The instance must belong to this session
// (its hooks dispatch to the session's analysis); interruption requires the
// engine to compile guarded code (WithFuel, where WithFuel(0) sets no
// budget).
func (s *Session) InvokeContext(ctx context.Context, inst *interp.Instance, fn string, args ...interp.Value) ([]interp.Value, error) {
	if s.closed {
		return nil, fmt.Errorf("%w: InvokeContext", ErrSessionClosed)
	}
	var onInterrupt func()
	if s.stream != nil {
		em := s.stream.em
		onInterrupt = em.Interrupt
		defer em.ClearInterrupt()
	}
	return inst.InvokeInterruptible(ctx, onInterrupt, fn, args...)
}

// Close ends the session: every instance name it registered is removed from
// the engine's registry (so long-running engines do not accumulate retired
// instances — the registry-eviction half of the instance lifecycle), and an
// active event stream is torn down and its pooled batch buffers released.
// Teardown never waits on a consumer, for a Stream and a Fabric alike:
// every subscription ends, and batches still queued on it are discarded and
// counted in its Dropped (for a lossless shutdown, Close the stream and
// drain it first). The instances themselves stay usable for an embedder
// that still holds them; they are simply no longer reachable by name.
// Idempotent; the session cannot Instantiate or Stream afterwards.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	for _, name := range s.names {
		s.compiled.engine.reg.Remove(name)
	}
	s.names = nil
	if s.stream != nil {
		s.stream.em.CloseDiscard()
	}
	return nil
}

// Module returns the instrumented module (shared and read-only; see
// CompiledAnalysis.Module).
func (s *Session) Module() *wasm.Module { return s.compiled.module }

// Metadata returns the instrumentation metadata (shared and read-only).
func (s *Session) Metadata() *core.Metadata { return s.compiled.meta }

// Info returns the static module information analyses receive.
func (s *Session) Info() *ModuleInfo { return s.compiled.meta.Info }
