package interp

import (
	"context"
	"errors"
)

// InterruptError is an interruption trap joined with the context condition
// that caused it: errors.Is matches both ErrInterrupted (the trap side) and
// the context error (context.Canceled / context.DeadlineExceeded, or a
// custom cancel cause).
type InterruptError struct {
	Trap  error // the TrapInterrupted that stopped the guest
	Cause error // the context's cancellation cause
}

func (e *InterruptError) Error() string { return e.Trap.Error() + " (" + e.Cause.Error() + ")" }

// Unwrap exposes both sides to errors.Is/errors.As.
func (e *InterruptError) Unwrap() []error { return []error{e.Trap, e.Cause} }

// InvokeInterruptible is Invoke under a context: when ctx is cancelled or
// its deadline expires mid-run, the instance is interrupted and the
// invocation returns an *InterruptError matching both ErrInterrupted and the
// context error. Interruption requires a Guarded instance — on unguarded
// code the context is only checked on entry. The interrupt flag is re-armed
// before returning, so the instance stays usable.
//
// onInterrupt, when non-nil, runs once on the interrupting goroutine right
// after the instance's flag is raised — the session layer unwedges its
// blocked stream producer there — so it must be safe to call from an
// arbitrary goroutine.
func (inst *Instance) InvokeInterruptible(ctx context.Context, onInterrupt func(), name string, args ...Value) ([]Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// AfterFunc runs on an arbitrary goroutine; Interrupt (an atomic store)
	// and onInterrupt implementations must be safe for that. fired provides
	// the happens-before edge for the cleanup below: when stop() reports the
	// callback started, wait for it to finish before re-arming the flag.
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		inst.Interrupt()
		if onInterrupt != nil {
			onInterrupt()
		}
		close(fired)
	})
	res, err := inst.Invoke(name, args...)
	if !stop() {
		<-fired
		inst.ClearInterrupt()
		if err != nil && errors.Is(err, ErrInterrupted) {
			if cause := context.Cause(ctx); cause != nil {
				return res, &InterruptError{Trap: err, Cause: cause}
			}
		}
	}
	return res, err
}
