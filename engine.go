package wasabi

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"wasabi/internal/analysis"
	"wasabi/internal/binary"
	"wasabi/internal/core"
	"wasabi/internal/failpoint"
	"wasabi/internal/interp"
	wruntime "wasabi/internal/runtime"
	"wasabi/internal/static"
	"wasabi/internal/validate"
	"wasabi/internal/wasm"
)

// Cap selects the analysis callbacks an instrumentation must be able to
// serve (one bit per high-level hook, with call_pre and call_post split).
// Instrument for AllCaps to get a module any analysis can attach to, or for
// CapsOf(a) to instrument selectively for one analysis shape.
type Cap = analysis.Cap

// AllCaps selects every callback (full instrumentation).
const AllCaps = analysis.AllCaps

// CapsOf returns the capability mask of the hook interfaces a implements.
func CapsOf(a any) Cap { return analysis.CapsOf(a) }

// Engine is the process-wide entry point of the API: it owns the state that
// is expensive to build and cheap to share — pooled instrumenter workers (in
// internal/core), the borrowed hook-value buffer pool, the instrumented-
// module cache, and the named-instance registry that lets instances import
// each other's exports. One Engine serves many modules, analyses, sessions,
// and goroutines concurrently; create it once and reuse it.
//
// The workflow is compile-once / instrument-many (the paper's
// instrument-once, analyze-many usage): Instrument produces an immutable
// CompiledAnalysis, from which any number of Sessions — each binding one
// analysis value — instantiate and run instances.
type Engine struct {
	cacheLimit int
	exec       interp.Config // containment config for every instance (see WithFuel etc.)
	deadline   time.Duration // default InvokeContext deadline (WithDeadline)
	static     bool          // analysis-aware instrumentation (WithStaticAnalysis)
	noValidate bool          // skip input validation (WithoutValidation)
	wasiCfg    *WASIConfig   // preview1 host environment (WithWASI); nil = no WASI
	reg        *interp.Registry
	pool       *wruntime.ValuePool

	mu         sync.Mutex
	cache      map[compiledKey]*CompiledAnalysis
	cacheOrder []compiledKey // insertion order, for FIFO eviction
}

type compiledKey struct {
	m     *wasm.Module
	hooks HookSet
}

// DefaultCompiledCacheLimit bounds the per-engine instrumented-module cache.
const DefaultCompiledCacheLimit = 128

// EngineOption configures a new Engine. Option constructors validate their
// values when applied: NewEngine rejects a misconfigured option with a
// *BadOptionError (errors.Is ErrBadOption) instead of accepting a value that
// would misbehave at runtime.
type EngineOption func(*Engine) error

// WithCompiledCacheLimit overrides the instrumented-module cache bound; 0
// disables caching entirely (every Instrument call runs the instrumenter).
func WithCompiledCacheLimit(n int) EngineOption {
	return func(e *Engine) error {
		if n < 0 {
			return badOption("WithCompiledCacheLimit", n, "cache bound cannot be negative (0 disables caching)")
		}
		e.cacheLimit = n
		return nil
	}
}

// WithFuel enables deterministic fuel metering: instances compile with
// containment guards and start with the given fuel budget (one unit per
// source instruction; 0 means unlimited but still guarded). A guest that
// exhausts its budget fails with ErrFuelExhausted; Instance.SetFuel tops the
// budget up between invocations. Guarded compilation also makes instances
// interruptible (Session.InvokeContext). See README "Containment & limits"
// for the overhead (one fused check per basic block).
func WithFuel(budget int64) EngineOption {
	return func(e *Engine) error {
		if budget < 0 {
			return badOption("WithFuel", budget, "fuel budget cannot be negative (0 means unlimited but guarded)")
		}
		e.exec.Guarded = true
		e.exec.Fuel = uint64(budget)
		return nil
	}
}

// WithInterruption enables asynchronous interruption without fuel metering:
// instances compile with containment guards (unlimited fuel) so
// Session.InvokeContext can stop them on context cancellation or deadline
// expiry. Implied by WithFuel and WithDeadline.
func WithInterruption() EngineOption {
	return func(e *Engine) error {
		e.exec.Guarded = true
		return nil
	}
}

// WithDeadline bounds every Session.InvokeContext call whose context has no
// earlier deadline to d, and enables guarded compilation so the deadline can
// actually stop a runaway guest. Plain Invoke calls are not affected.
func WithDeadline(d time.Duration) EngineOption {
	return func(e *Engine) error {
		if d <= 0 {
			return badOption("WithDeadline", d, "deadline must be positive")
		}
		e.exec.Guarded = true
		e.deadline = d
		return nil
	}
}

// WithMemoryLimitPages caps linear-memory size (initial allocation and
// growth alike) of every instance at n 64 KiB pages, replacing the default
// interp.DefaultMaxMemoryPages cap. A module whose declared minimum exceeds
// the cap fails to instantiate with ErrLimit; in-run growth past it makes
// memory.grow return -1 (the spec's failure value), not a trap.
func WithMemoryLimitPages(n uint32) EngineOption {
	return func(e *Engine) error {
		if n == 0 {
			return badOption("WithMemoryLimitPages", n, "a zero-page cap makes every memory-carrying module fail; omit the option for the default cap")
		}
		e.exec.MaxMemoryPages = n
		return nil
	}
}

// WithTableLimit caps table size (initial allocation and host-driven growth)
// of every instance at n elements, replacing the default
// interp.DefaultMaxTableElems cap. Violations fail like memory-limit ones.
func WithTableLimit(n uint32) EngineOption {
	return func(e *Engine) error {
		if n == 0 {
			return badOption("WithTableLimit", n, "a zero-element cap makes every table-carrying module fail; omit the option for the default cap")
		}
		e.exec.MaxTableElems = n
		return nil
	}
}

// WithMaxCallDepth caps wasm call recursion of every instance at n frames
// (default interp.MaxCallDepthDefault); exceeding it traps with "call stack
// exhausted".
func WithMaxCallDepth(n int) EngineOption {
	return func(e *Engine) error {
		if n < 1 {
			return badOption("WithMaxCallDepth", n, "recursion cap must allow at least one frame")
		}
		e.exec.MaxCallDepth = n
		return nil
	}
}

// WithStaticAnalysis enables analysis-aware instrumentation: before
// instrumenting, the engine runs the static-analysis pipeline
// (internal/static: call graph, per-function CFGs, dataflow) and elides hooks
// its results prove unobservable — functions unreachable from the module's
// exports and start function are copied through uninstrumented, and
// InstrumentFor collapses coverage-class analyses (those implementing
// BlockCoverageHooker) from per-instruction hooks to one probe per CFG basic
// block. The elision is exact for reachability (an unreachable function can
// never fire a hook); block-probe collapse changes the event vocabulary the
// analysis sees, which is why it is gated on the analysis opting in. See
// README "Static analysis".
func WithStaticAnalysis() EngineOption {
	return func(e *Engine) error {
		e.static = true
		return nil
	}
}

// WithoutValidation skips validating input modules before instrumentation.
// By default every Instrument call validates first and rejects malformed
// modules with a positioned ValidationError; an embedder whose modules are
// already validated (e.g. straight from a toolchain it trusts) can waive the
// cost. Instrumenting an invalid module without validation is undefined
// behavior — typically an instrumenter error, possibly a broken output
// module.
func WithoutValidation() EngineOption {
	return func(e *Engine) error {
		e.noValidate = true
		return nil
	}
}

// NewEngine creates an engine. A misconfigured option fails the construction
// with a *BadOptionError (errors.Is ErrBadOption).
func NewEngine(opts ...EngineOption) (*Engine, error) {
	e := &Engine{
		cacheLimit: DefaultCompiledCacheLimit,
		reg:        interp.NewRegistry(),
		pool:       &wruntime.ValuePool{},
		cache:      make(map[compiledKey]*CompiledAnalysis),
	}
	for _, o := range opts {
		if err := o(e); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Instrument instruments m once for every hook the capability mask selects
// and returns the immutable result. An empty mask fails with ErrNoHooks
// (instrumenting for nothing can never produce an event). Results are
// cached per (module, derived hook set): instrumenting the same
// *wasm.Module value for the same mask again returns the same
// *CompiledAnalysis without re-running the instrumenter (callers must not
// mutate a module after handing it to Instrument). The cache is bounded
// (WithCompiledCacheLimit, FIFO eviction) and entries can be released
// eagerly with Uncache. The input module itself is never modified.
func (e *Engine) Instrument(m *wasm.Module, caps Cap) (*CompiledAnalysis, error) {
	return e.InstrumentHooks(m, caps.HookSet())
}

// InstrumentFor instruments m selectively for exactly the hook interfaces
// the analysis value implements. It fails with ErrNoHooks when a implements
// none of them. The returned CompiledAnalysis is not tied to a: it accepts
// a session for any analysis whose hooks overlap the instrumented set —
// hooks the new analysis implements beyond that set simply never fire
// (instrument with AllCaps when sessions must observe everything their
// analyses implement).
func (e *Engine) InstrumentFor(m *wasm.Module, a any) (*CompiledAnalysis, error) {
	caps := analysis.CapsOf(a)
	if caps == 0 {
		return nil, errNoHooksFor(a)
	}
	// Block-probe collapse (WithStaticAnalysis): a coverage-class analysis —
	// one that can consume a single probe event per CFG basic block — is
	// instrumented with one probe per block instead of hooks at every
	// instruction it implements a callback for. Analyses that additionally
	// need a few per-instruction kinds the probes cannot reconstruct (e.g.
	// branch directions) keep exactly those via BlockModeHooks.
	if e.static && caps.Has(analysis.CapBlockCoverage) {
		hooks := analysis.Set(analysis.KindBlockProbe)
		if k, ok := a.(analysis.BlockModeKeeper); ok {
			hooks |= k.BlockModeHooks()
		}
		return e.InstrumentHooks(m, hooks)
	}
	return e.Instrument(m, caps&^analysis.CapBlockCoverage)
}

// InstrumentHooks is Instrument with an explicit low-level hook-kind set
// (e.g. parsed from a command line) instead of a capability mask.
func (e *Engine) InstrumentHooks(m *wasm.Module, hooks HookSet) (*CompiledAnalysis, error) {
	if hooks.IsEmpty() {
		return nil, fmt.Errorf("%w: empty hook selection — instrumenting for nothing", ErrNoHooks)
	}
	key := compiledKey{m: m, hooks: hooks}
	e.mu.Lock()
	if c, ok := e.cache[key]; ok {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	c, err := e.instrumentUncached(m, core.Options{Hooks: hooks})
	if err != nil {
		return nil, err
	}

	e.mu.Lock()
	if prev, ok := e.cache[key]; ok { // lost a race to a concurrent Instrument
		c = prev
	} else if e.cacheLimit > 0 {
		// Fault-injection seam for the cache insert: the instrumentation
		// itself succeeded, so a fault here must leave the engine fully
		// usable (a disarmed retry instruments again and caches normally).
		if err := failpoint.Inject(failpoint.InstrumentCache); err != nil {
			e.mu.Unlock()
			return nil, fmt.Errorf("wasabi: cache instrumented module: %w", err)
		}
		for len(e.cache) >= e.cacheLimit { // FIFO eviction at the bound
			oldest := e.cacheOrder[0]
			e.cacheOrder = e.cacheOrder[1:]
			delete(e.cache, oldest)
		}
		e.cache[key] = c
		e.cacheOrder = append(e.cacheOrder, key)
	}
	e.mu.Unlock()
	return c, nil
}

// Uncache releases every cached instrumentation of m (e.g. when a
// long-running server retires a module). Sessions and instances already
// created from the dropped entries stay valid.
func (e *Engine) Uncache(m *wasm.Module) {
	e.mu.Lock()
	defer e.mu.Unlock()
	kept := e.cacheOrder[:0]
	for _, key := range e.cacheOrder {
		if key.m == m {
			delete(e.cache, key)
		} else {
			kept = append(kept, key)
		}
	}
	e.cacheOrder = kept
}

// InstrumentBytes is Instrument for a binary-encoded module. Unlike
// Instrument it never caches: every call decodes a fresh module value, so a
// pointer-keyed cache entry could never be hit again and would only leak —
// callers that want the cache should Decode once and call Instrument with
// the retained module.
func (e *Engine) InstrumentBytes(wasmBytes []byte, caps Cap) (*CompiledAnalysis, error) {
	if caps.HookSet().IsEmpty() {
		return nil, fmt.Errorf("%w: empty hook selection — instrumenting for nothing", ErrNoHooks)
	}
	m, err := binary.Decode(wasmBytes)
	if err != nil {
		return nil, fmt.Errorf("wasabi: decode: %w", err)
	}
	return e.instrumentUncached(m, core.Options{Hooks: caps.HookSet()})
}

// instrumentUncached runs the instrumenter without touching the cache: for
// inputs whose module pointer will never be seen again (decoded bytes),
// caching would retain every module forever.
func (e *Engine) instrumentUncached(m *wasm.Module, opts core.Options) (*CompiledAnalysis, error) {
	if !e.noValidate {
		if err := validate.Module(m); err != nil {
			return nil, validationError(err)
		}
	}
	// Validated above (or explicitly waived); don't pay for it again inside
	// the instrumenter.
	opts.SkipValidation = true
	if e.static {
		plan, err := static.PlanFor(m, opts.Hooks)
		if err != nil {
			return nil, fmt.Errorf("wasabi: static analysis: %w", err)
		}
		opts.Plan = plan
	}
	instrumented, meta, err := core.Instrument(m, opts)
	if err != nil {
		if errors.Is(err, core.ErrHookNamespaceImport) {
			// Surface the instrumenter's namespace rejection under the public
			// sentinel so errors.Is(err, ErrHookModuleCollision) matches.
			return nil, &HookCollisionError{
				Name:   core.HookModule,
				Reason: "is imported by the input module",
				Err:    err,
			}
		}
		return nil, err
	}
	return &CompiledAnalysis{
		engine: e,
		module: instrumented,
		meta:   meta,
		shared: wruntime.NewShared(meta, e.pool),
		code:   interp.NewCompiledModule(instrumented, e.exec),
	}, nil
}

// Instance returns the instance registered under name by a
// Session.Instantiate on this engine.
func (e *Engine) Instance(name string) (*interp.Instance, bool) { return e.reg.Lookup(name) }

// InstanceNames returns the names of all registered instances, sorted.
func (e *Engine) InstanceNames() []string { return e.reg.Names() }

// RemoveInstance unregisters a named instance; the instance itself stays
// usable. This is the manual eviction path for long-running engines —
// normally Session.Close unregisters every name its session registered, but
// an embedder that hands instance names across session boundaries (or keeps
// sessions alive while retiring individual instances) evicts them here.
func (e *Engine) RemoveInstance(name string) { e.reg.Remove(name) }
