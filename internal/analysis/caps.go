package analysis

import "math/bits"

// Cap is a capability bitset with one bit per high-level callback an
// analysis can implement. It is finer-grained than HookSet: KindCall covers
// both the call_pre and call_post low-level hooks, but an analysis may
// implement only one of the two, and the runtime's per-spec trampolines bind
// the other to a shared no-op (which the interpreter then elides at compile
// time). The instrumenter keeps using HookSet — both call hooks must be
// instrumented together so pre/post events stay paired — while the runtime
// uses Cap to decide, per generated hook, whether dispatch can be dead.
type Cap uint32

// The Cap bits, in the order of the rows of the callback table (callbacks).
const (
	CapNop Cap = 1 << iota
	CapUnreachable
	CapIf
	CapBr
	CapBrIf
	CapBrTable
	CapBegin
	CapEnd
	CapConst
	CapDrop
	CapSelect
	CapUnary
	CapBinary
	CapLocal
	CapGlobal
	CapLoad
	CapStore
	CapMemorySize
	CapMemoryGrow
	CapCallPre
	CapCallPost
	CapReturn
	CapStart
	// CapBlockCoverage marks an analysis that can consume one probe event
	// per CFG basic block (BlockCoverageHooker) instead of per-instruction
	// hooks: a static-analysis-enabled engine collapses its coverage-class
	// instrumentation to block probes (see internal/static).
	CapBlockCoverage
)

// NumCaps is the number of Cap bits: one per hook kind, plus the call
// pre/post split.
const NumCaps = len(callbacks)

// AllCaps selects every per-instruction callback: instrumenting for AllCaps
// produces a module any analysis can attach to (the engine's compile-once /
// instrument-many default). CapBlockCoverage is excluded — block probes are
// an opt-in elision strategy, not part of "observe everything".
const AllCaps = Cap(1<<NumCaps-1) &^ CapBlockCoverage

// Has reports whether every bit of x is set in c.
func (c Cap) Has(x Cap) bool { return c&x == x }

// HasAny reports whether at least one bit of x is set in c.
func (c Cap) HasAny(x Cap) bool { return c&x != 0 }

// callback is one row of the callback table: the hook kind the callback
// observes, and bind, which returns the analysis's callback method bound to
// it, or nil when the analysis does not implement the hook interface.
type callback struct {
	kind HookKind
	bind func(a any) any
}

// method makes the binder of hook interface H from m, which returns the
// method of an H bound to it.
func method[H any](m func(H) any) func(any) any {
	return func(a any) any {
		if h, ok := a.(H); ok {
			return m(h)
		}
		return nil
	}
}

// callbacks is the callback table, one row per Cap bit in bit order. It is
// the one place that ties a hook interface to its Cap bit and hook kind:
// Bind, CapsOf, Cap.HookSet and HookKind.Caps all read it.
var callbacks = [...]callback{
	{KindNop, method(func(h NopHooker) any { return h.Nop })},
	{KindUnreachable, method(func(h UnreachableHooker) any { return h.Unreachable })},
	{KindIf, method(func(h IfHooker) any { return h.If })},
	{KindBr, method(func(h BrHooker) any { return h.Br })},
	{KindBrIf, method(func(h BrIfHooker) any { return h.BrIf })},
	{KindBrTable, method(func(h BrTableHooker) any { return h.BrTable })},
	{KindBegin, method(func(h BeginHooker) any { return h.Begin })},
	{KindEnd, method(func(h EndHooker) any { return h.End })},
	{KindConst, method(func(h ConstHooker) any { return h.Const })},
	{KindDrop, method(func(h DropHooker) any { return h.Drop })},
	{KindSelect, method(func(h SelectHooker) any { return h.Select })},
	{KindUnary, method(func(h UnaryHooker) any { return h.Unary })},
	{KindBinary, method(func(h BinaryHooker) any { return h.Binary })},
	{KindLocal, method(func(h LocalHooker) any { return h.Local })},
	{KindGlobal, method(func(h GlobalHooker) any { return h.Global })},
	{KindLoad, method(func(h LoadHooker) any { return h.Load })},
	{KindStore, method(func(h StoreHooker) any { return h.Store })},
	{KindMemorySize, method(func(h MemorySizeHooker) any { return h.MemorySize })},
	{KindMemoryGrow, method(func(h MemoryGrowHooker) any { return h.MemoryGrow })},
	{KindCall, method(func(h CallPreHooker) any { return h.CallPre })},
	{KindCall, method(func(h CallPostHooker) any { return h.CallPost })},
	{KindReturn, method(func(h ReturnHooker) any { return h.Return })},
	{KindStart, method(func(h StartHooker) any { return h.Start })},
	{KindBlockProbe, method(func(h BlockCoverageHooker) any { return h.BlockCovered })},
}

// Callbacks holds an analysis's bound callback methods, indexed by Cap bit
// position; an entry is nil where the analysis does not implement the hook
// interface.
type Callbacks [NumCaps]any

// Of returns the callback bound for the single capability bit c, or nil.
func (cbs *Callbacks) Of(c Cap) any { return cbs[bits.TrailingZeros32(uint32(c))] }

// Bind binds every callback the analysis implements and returns them with
// their capability bits.
func Bind(a any) (cbs Callbacks, caps Cap) {
	for i, row := range callbacks {
		if cbs[i] = row.bind(a); cbs[i] != nil {
			caps |= 1 << i
		}
	}
	return cbs, caps
}

// CapsOf inspects which hook interfaces the analysis implements and returns
// the matching capability bits.
func CapsOf(a any) Cap {
	_, caps := Bind(a)
	return caps
}

// HookSet converts capability bits to the coarser HookSet used by the
// instrumenter: a kind is selected when any of its callbacks is implemented.
func (c Cap) HookSet() HookSet {
	var s HookSet
	for i, row := range callbacks {
		if c.Has(1 << i) {
			s = s.With(row.kind)
		}
	}
	return s
}

// Callback returns the capability bit of the one callback a hook of kind k
// dispatches to: post selects call_post over call_pre for KindCall.
func (k HookKind) Callback(post bool) Cap {
	switch {
	case k != KindCall:
		return k.Caps()
	case post:
		return CapCallPost
	}
	return CapCallPre
}

// Caps returns the capability bits whose callbacks observe kind k (both
// call bits for KindCall, since either callback makes the kind live).
func (k HookKind) Caps() Cap {
	var c Cap
	for i, row := range callbacks {
		if row.kind == k {
			c |= 1 << i
		}
	}
	return c
}
