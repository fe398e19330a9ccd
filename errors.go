package wasabi

import (
	"errors"
	"fmt"

	"wasabi/internal/interp"
	wruntime "wasabi/internal/runtime"
	"wasabi/internal/sink"
	"wasabi/internal/validate"
)

// The exported error surface. Every sentinel below matches with errors.Is
// through any number of %w wraps, and the misuse classes that carry context
// (which analysis had no hooks, which name collided) additionally surface a
// typed error for errors.As — the typed values unwrap to their sentinel, so
// both matching styles work on the same returned error.

// ErrNoHooks reports an analysis value that implements no hook interface
// and declares no stream capabilities (or none that the module was
// instrumented for): binding it would silently observe nothing, which is
// never what the caller meant. Matched with errors.Is; errors.As with
// *NoHooksError recovers the offending analysis type.
var ErrNoHooks = errors.New("wasabi: analysis implements no hook interface")

// ErrHookModuleCollision reports a clash between the program's imports (or
// an instance name) and the generated hook import namespace
// (core.HookModule): letting one silently shadow the other would either
// disconnect the analysis or feed program calls into hook trampolines.
// Matched with errors.Is; errors.As with *HookCollisionError recovers the
// colliding name.
var ErrHookModuleCollision = errors.New("wasabi: import module name collides with the generated hook imports")

// ErrInvalidModule reports an input module that failed validation before
// instrumentation. Every input is validated, so malformed inputs fail with a
// positioned diagnostic instead of undefined instrumenter behavior. Matched
// with errors.Is; errors.As with *ValidationError recovers the failure
// position.
var ErrInvalidModule = errors.New("wasabi: input module invalid")

// ErrBadOption reports an engine or stream option constructed with an
// invalid value (negative fuel, zero batch size, a zero-page memory cap, …).
// The misconfiguration fails at construction — NewEngine / Session.Stream —
// instead of being silently accepted and misbehaving at runtime. Matched
// with errors.Is; errors.As with *BadOptionError recovers which option and
// value were rejected.
var ErrBadOption = errors.New("wasabi: invalid option value")

// ErrUnsupported reports a module using instructions from a post-MVP
// proposal the runtime does not implement yet (passive data/element
// segments and the table forms of bulk memory; sign-extension, saturating
// truncation, and memory.copy/memory.fill are implemented and accepted).
// Such modules are rejected at
// validation time with a position instead of faulting mid-execution — the
// decoder deliberately represents these instructions so the failure is
// typed, not a generic decode error. Matched with errors.Is (the error also
// wraps ErrInvalidModule); errors.As with *UnsupportedError recovers the
// instruction and proposal, *ValidationError the position.
var ErrUnsupported = validate.ErrUnsupported

// ErrSessionClosed reports use of a session after Session.Close.
var ErrSessionClosed = errors.New("wasabi: session is closed")

// ErrStreamActive reports a second Session.Stream call: a session has at
// most one event stream.
var ErrStreamActive = errors.New("wasabi: session already has an event stream")

// ErrStreamAfterInstantiate reports Session.Stream called after the session
// already instantiated an instance: the hook dispatchers are compiled at
// first instantiation, so the delivery mode cannot change afterwards.
var ErrStreamAfterInstantiate = errors.New("wasabi: Stream must be called before the session's first Instantiate")

// The event-fabric and record-sink error surface (see README "Event
// fabric"): misuse of the fan-out lifecycle and damaged segment files,
// re-exported from the internal packages so embedders match them without
// internal imports.
var (
	// ErrFabricClosed matches Fabric.Subscribe after the stream ended
	// (producer Close, session teardown, or a terminal stream error): a
	// late subscriber could only observe silence.
	ErrFabricClosed = wruntime.ErrClosed
	// ErrSubscriptionClosed matches a second Subscription.Close — a
	// lifecycle bug, since the first Close already released the
	// subscription's queued batches.
	ErrSubscriptionClosed = wruntime.ErrSubscriptionClosed
	// ErrCorruptSegment matches replay of a truncated or damaged event-log
	// segment file (sink.Open / wasabi-replay): bad magic or version, a
	// foreign byte order, or a commit watermark promising records the file
	// does not hold. errors.As with *CorruptSegmentError recovers the file,
	// offset, and reason. (A torn tail BEYOND the watermark is normal crash
	// debris and replays cleanly without the tail.)
	ErrCorruptSegment = sink.ErrCorrupt
	// ErrSinkClosed matches records written to, or a Sync of, a record sink
	// after its Close (sink.Writer latches it into Err instead of failing
	// the stream it serves).
	ErrSinkClosed = sink.ErrSinkClosed
)

// CorruptSegmentError is the typed form of ErrCorruptSegment: which segment
// file failed validation, at what byte offset, and why.
type CorruptSegmentError = sink.CorruptError

// The containment error surface (see README "Containment & limits"): the
// interp layer's sentinels and typed errors, re-exported so embedders match
// guest failures without importing internal packages. All of them come back
// from Invoke/InvokeContext (and from Stream.Err after a stream teardown).
var (
	// ErrFuelExhausted matches the trap of a guest that ran out of fuel
	// (WithFuel / Instance.SetFuel).
	ErrFuelExhausted = interp.ErrFuelExhausted
	// ErrInterrupted matches the trap of a guest stopped asynchronously —
	// context cancellation, deadline expiry, or Instance.Interrupt. An
	// InvokeContext error matches the context error too (context.Canceled /
	// context.DeadlineExceeded), via interp.InterruptError.
	ErrInterrupted = interp.ErrInterrupted
	// ErrLimit matches instantiation failures caused by a resource limit:
	// the memory cap (WithMemoryLimitPages), or the fixed bounds on table
	// entries (interp.DefaultMaxTableElems) and on a function's operand
	// stack (interp.DefaultMaxFuncStack).
	ErrLimit = interp.ErrLimit
	// ErrRuntimeFault matches any *RuntimeFault — a non-trap panic out of
	// guest execution converted into an error instead of crashing the host.
	ErrRuntimeFault = interp.ErrRuntimeFault
)

type (
	// Trap is a WebAssembly runtime trap (spec semantics plus the
	// containment traps); recover it with errors.As.
	Trap = interp.Trap
	// RuntimeFault is a non-trap guest panic converted into an error,
	// carrying function/pc context; recover it with errors.As.
	RuntimeFault = interp.RuntimeFault
	// InterruptError joins an interruption trap with the context condition
	// that caused it; errors.Is matches both sides.
	InterruptError = interp.InterruptError
)

// NoHooksError is the typed form of ErrNoHooks: it names the analysis type
// that could observe nothing and, when the failure is a capability mismatch
// rather than an empty analysis, what was instrumented vs implemented.
type NoHooksError struct {
	AnalysisType string // %T of the offending analysis value
	Detail       string // optional: why the capabilities cannot observe anything
}

func (e *NoHooksError) Error() string {
	msg := fmt.Sprintf("%v (analysis type %s)", ErrNoHooks, e.AnalysisType)
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}

func (e *NoHooksError) Unwrap() error { return ErrNoHooks }

// errNoHooksFor is the shared ErrNoHooks construction naming the offending
// analysis type.
func errNoHooksFor(a any) error {
	return &NoHooksError{AnalysisType: fmt.Sprintf("%T", a)}
}

// BadOptionError is the typed form of ErrBadOption: which option was
// misconfigured, the offending value, and why it is invalid.
type BadOptionError struct {
	Option string // the option constructor, e.g. "WithFuel"
	Value  string // the rejected value, formatted
	Reason string
}

func (e *BadOptionError) Error() string {
	return fmt.Sprintf("%v: %s(%s): %s", ErrBadOption, e.Option, e.Value, e.Reason)
}

func (e *BadOptionError) Unwrap() error { return ErrBadOption }

// badOption is the shared BadOptionError construction.
func badOption(option string, value any, reason string) error {
	return &BadOptionError{Option: option, Value: fmt.Sprint(value), Reason: reason}
}

// UnsupportedError is the typed form of ErrUnsupported: the text name of
// the unimplemented instruction and the proposal it belongs to. Recover the
// module position from the enclosing *ValidationError.
type UnsupportedError = validate.UnsupportedError

// ValidationError is the typed form of ErrInvalidModule: where validation of
// the input module failed. FuncIdx (whole function index space) and Instr
// (original instruction index) are -1 when the failure is not scoped to a
// function or instruction; Op names the opcode at Instr when there is one.
type ValidationError struct {
	FuncIdx  int
	FuncName string
	Instr    int
	Op       string
	Err      error // the full positioned validation failure
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("%v: %v", ErrInvalidModule, e.Err)
}

func (e *ValidationError) Unwrap() []error { return []error{ErrInvalidModule, e.Err} }

// validationError lifts the internal validator's failure into the public
// typed error, copying the position fields when the failure carries them.
func validationError(err error) error {
	ve := &ValidationError{FuncIdx: -1, Instr: -1, Err: err}
	var ie *validate.Error
	if errors.As(err, &ie) {
		ve.FuncIdx, ve.FuncName, ve.Instr = ie.FuncIdx, ie.FuncName, ie.Instr
		if ie.Instr >= 0 {
			ve.Op = ie.Op.String()
		}
	}
	return ve
}

// HookCollisionError is the typed form of ErrHookModuleCollision: Name is
// the colliding import-module or instance name, Reason says which of the
// collision classes was hit. Err optionally chains the lower-layer error
// (e.g. the instrumenter's namespace rejection).
type HookCollisionError struct {
	Name   string
	Reason string
	Err    error
}

func (e *HookCollisionError) Error() string {
	msg := fmt.Sprintf("%v: %q %s", ErrHookModuleCollision, e.Name, e.Reason)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *HookCollisionError) Unwrap() []error {
	if e.Err != nil {
		return []error{ErrHookModuleCollision, e.Err}
	}
	return []error{ErrHookModuleCollision}
}
