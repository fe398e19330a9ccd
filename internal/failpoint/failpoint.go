// Package failpoint provides named fault-injection points for the host-side
// seams of the runtime: places where the host allocates, registers, or hands
// off resources on behalf of a guest, and where a failure must degrade into
// a typed error — never a panic, a leaked goroutine, or a wedged Engine.
//
// A failpoint is a named site compiled into production code as
//
//	if err := failpoint.Inject(failpoint.EmitterFlush); err != nil { ... }
//
// Disabled (the default), Inject is a single atomic load of a package
// counter followed by a predictable branch — no map lookup, no allocation,
// no per-site state touched. TestArmed pins that shape. Tests arm points
// with Arm and disarm them with Disarm/DisarmAll.
//
// The graceful-degradation invariants every armed point must uphold are
// asserted by the scheduler suite in the root package (failpoint_test.go):
// a typed error surfaces, live streams end with a terminal Stream.Err, the
// Session/Engine remain usable, registry names are released, and no
// goroutines leak.
package failpoint

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Point names one injection site. The value is an index into the armed
// table, so Inject's per-point check is an array load, not a map lookup.
type Point int

// The registered injection points: the host-side seams the containment
// layer (PR 6) does not cover.
const (
	// EmitterEmit fires in the event emitter's per-event append path, where
	// a full batch forces acquisition of the next buffer.
	EmitterEmit Point = iota
	// EmitterFlush fires when the emitter hands a finished batch to the
	// consumer side.
	EmitterFlush
	// RegistryReserve fires while reserving an instance name in the
	// engine's registry, before any instance state exists.
	RegistryReserve
	// RegistryCommit fires at the point a reserved name would be committed,
	// after the instance is fully built.
	RegistryCommit
	// ValuePoolGet fires when hook dispatch borrows a value buffer from the
	// engine's pool.
	ValuePoolGet
	// HostCall fires at the host-call boundary, as a guest-visible host
	// function is about to run.
	HostCall
	// InstrumentCache fires when the engine is about to insert a freshly
	// instrumented module into its compiled-analysis cache.
	InstrumentCache
	// WASIHostCall fires at the WASI syscall boundary, as a
	// wasi_snapshot_preview1 host function is about to service a guest
	// request (before any fd/clock/random state is touched).
	WASIHostCall

	numPoints int = iota
)

var pointNames = [numPoints]string{
	EmitterEmit:     "emitter-emit",
	EmitterFlush:    "emitter-flush",
	RegistryReserve: "registry-reserve",
	RegistryCommit:  "registry-commit",
	ValuePoolGet:    "value-pool-get",
	HostCall:        "host-call",
	InstrumentCache: "instrument-cache",
	WASIHostCall:    "wasi-host-call",
}

// String returns the point's stable name.
func (p Point) String() string {
	if p < 0 || int(p) >= numPoints {
		return fmt.Sprintf("failpoint(%d)", int(p))
	}
	return pointNames[p]
}

// Points lists every registered point, for scheduler-style test suites.
func Points() []Point {
	out := make([]Point, numPoints)
	for i := range out {
		out[i] = Point(i)
	}
	return out
}

// ErrInjected is the sentinel every injected failure wraps; errors.Is
// against it identifies an injected fault regardless of the site.
var ErrInjected = errors.New("failpoint: injected fault")

// InjectedError is the typed error returned by an armed Inject.
type InjectedError struct {
	Point Point
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("failpoint %s: injected fault", e.Point)
}

// Unwrap makes errors.Is(err, ErrInjected) true.
func (e *InjectedError) Unwrap() error { return ErrInjected }

// armedTotal counts armed points process-wide. It is the ONLY state the
// disabled fast path reads: zero means every Inject returns nil after one
// atomic load.
var armedTotal atomic.Int32

// armed holds the per-point armed flags, consulted only when armedTotal is
// nonzero.
var armed [numPoints]atomic.Bool

// Inject reports whether the named point should fail. It returns nil when
// the point (or the whole layer) is disarmed, and an *InjectedError when
// armed. The disabled path is a single atomic load and branch.
func Inject(p Point) error {
	if armedTotal.Load() == 0 {
		return nil
	}
	return injectSlow(p)
}

// injectSlow is kept out of Inject so the fast path stays inlinable.
func injectSlow(p Point) error {
	if p >= 0 && int(p) < numPoints && armed[p].Load() {
		return &InjectedError{Point: p}
	}
	return nil
}

// Enabled reports whether the point is currently armed. Sites whose seam
// cannot return an error (panic-contract paths) use it to decide whether to
// simulate the failure in their own idiom.
func Enabled(p Point) bool {
	if armedTotal.Load() == 0 {
		return false
	}
	return p >= 0 && int(p) < numPoints && armed[p].Load()
}

// Arm activates the point. Arming an already-armed point is a no-op.
func Arm(p Point) {
	if p < 0 || int(p) >= numPoints {
		panic(fmt.Sprintf("failpoint: unknown point %d", int(p)))
	}
	if armed[p].CompareAndSwap(false, true) {
		armedTotal.Add(1)
	}
}

// Disarm deactivates the point. Disarming an already-disarmed point is a
// no-op.
func Disarm(p Point) {
	if p < 0 || int(p) >= numPoints {
		return
	}
	if armed[p].CompareAndSwap(true, false) {
		armedTotal.Add(-1)
	}
}

// DisarmAll deactivates every point.
func DisarmAll() {
	for i := range armed {
		Disarm(Point(i))
	}
}
