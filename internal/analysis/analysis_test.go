package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"wasabi/internal/wasm"
)

func TestValueAccessors(t *testing.T) {
	if v := I32V(-5); v.I32() != -5 || v.Type != wasm.I32 {
		t.Errorf("I32V: %v", v)
	}
	if v := I64V(math.MinInt64); v.I64() != math.MinInt64 {
		t.Errorf("I64V: %v", v)
	}
	f32v := Value{Type: wasm.F32, Bits: uint64(math.Float32bits(2.5))}
	if f32v.F32() != 2.5 {
		t.Errorf("F32: %v", f32v.F32())
	}
	f64v := Value{Type: wasm.F64, Bits: math.Float64bits(-1.25)}
	if f64v.F64() != -1.25 {
		t.Errorf("F64: %v", f64v.F64())
	}
	if I32V(7).String() != "7:i32" {
		t.Errorf("String: %s", I32V(7))
	}
}

func TestQuickValueRoundTrip(t *testing.T) {
	if err := quick.Check(func(x int64) bool {
		return I64V(x).I64() == x
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(x int32) bool {
		return I32V(x).I32() == x
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMemArg(t *testing.T) {
	m := MemArg{Addr: math.MaxUint32, Offset: math.MaxUint32}
	if m.EffAddr() != 2*uint64(math.MaxUint32) {
		t.Errorf("EffAddr must not wrap: %d", m.EffAddr())
	}
}

func TestHookSetOps(t *testing.T) {
	s := Set(KindLoad, KindStore)
	if !s.Has(KindLoad) || !s.Has(KindStore) || s.Has(KindCall) {
		t.Error("Has wrong")
	}
	if s.String() != "load,store" {
		t.Errorf("String: %s", s)
	}
	if AllHooks.String() != "all" {
		t.Errorf("AllHooks String: %s", AllHooks)
	}
	// AllHooks covers every per-instruction kind but not the synthetic
	// block probe, which only exists where a static plan places it.
	if got := len(AllHooks.Kinds()); got != NumKinds-1 {
		t.Errorf("AllHooks has %d kinds, want %d", got, NumKinds-1)
	}
	if AllHooks.Has(KindBlockProbe) {
		t.Error("AllHooks must not include block_probe")
	}
	if s, ok := ParseHookSet("block_probe"); !ok || !s.Has(KindBlockProbe) {
		t.Error("block_probe must parse by name")
	}
	if HookSet(0).String() != "" || !HookSet(0).IsEmpty() {
		t.Error("empty set wrong")
	}
}

func TestParseHookSet(t *testing.T) {
	s, ok := ParseHookSet("load, store,br_if")
	if !ok || s != Set(KindLoad, KindStore, KindBrIf) {
		t.Errorf("parse: %v %v", s, ok)
	}
	if s, ok := ParseHookSet("all"); !ok || s != AllHooks {
		t.Errorf("all: %v %v", s, ok)
	}
	if _, ok := ParseHookSet("bogus"); ok {
		t.Error("bogus should fail")
	}
	// Round trip every kind name.
	for k := HookKind(0); int(k) < NumKinds; k++ {
		got, ok := KindFromName(k.String())
		if !ok || got != k {
			t.Errorf("KindFromName(%s) = %v, %v", k, got, ok)
		}
	}
}

type loadOnly struct{}

func (loadOnly) Load(Location, string, MemArg, Value) {}

type loadStoreCall struct{ loadOnly }

func (loadStoreCall) Store(Location, string, MemArg, Value) {}
func (loadStoreCall) CallPost(Location, []Value)            {}

func TestHooksOf(t *testing.T) {
	if got := HooksOf(loadOnly{}); got != Set(KindLoad) {
		t.Errorf("loadOnly: %s", got)
	}
	// call_post alone still selects the call kind (pre and post are always
	// instrumented together).
	if got := HooksOf(loadStoreCall{}); got != Set(KindLoad, KindStore, KindCall) {
		t.Errorf("loadStoreCall: %s", got)
	}
	if got := HooksOf(struct{}{}); !got.IsEmpty() {
		t.Errorf("empty analysis: %s", got)
	}
}

func TestModuleInfoFuncName(t *testing.T) {
	mi := &ModuleInfo{FuncNames: []string{"a", ""}}
	if mi.FuncName(0) != "a" || mi.FuncName(1) != "func1" || mi.FuncName(7) != "func7" {
		t.Error("FuncName fallback wrong")
	}
}

// TestBlockKindCodes pins Code and BlockKindOf as inverses over the dense
// code range, so the Code switch cannot drift from the code table.
func TestBlockKindCodes(t *testing.T) {
	seen := map[BlockKind]bool{}
	for c := range uint32(NumBlockKinds) {
		k := BlockKindOf(c)
		if seen[k] {
			t.Errorf("code %d: block kind %q already has a code", c, k)
		}
		seen[k] = true
		if got := k.Code(); got != c {
			t.Errorf("%q.Code() = %d, want %d", k, got, c)
		}
	}
}

// TestCallbackTable pins each row of the callback table to its Cap
// constant: an analysis implementing exactly one hook interface has exactly
// that interface's bit, which selects exactly the kind the callback
// observes. Swapping two rows keeps Bind and the runtime consistent with
// each other, but not with the named constants that StreamCaps, Instrument
// and the runtime's call and br_table plans use.
func TestCallbackTable(t *testing.T) {
	for _, tc := range []struct {
		a    any
		cap  Cap
		kind HookKind
	}{
		{struct{ NopHooker }{}, CapNop, KindNop},
		{struct{ UnreachableHooker }{}, CapUnreachable, KindUnreachable},
		{struct{ IfHooker }{}, CapIf, KindIf},
		{struct{ BrHooker }{}, CapBr, KindBr},
		{struct{ BrIfHooker }{}, CapBrIf, KindBrIf},
		{struct{ BrTableHooker }{}, CapBrTable, KindBrTable},
		{struct{ BeginHooker }{}, CapBegin, KindBegin},
		{struct{ EndHooker }{}, CapEnd, KindEnd},
		{struct{ ConstHooker }{}, CapConst, KindConst},
		{struct{ DropHooker }{}, CapDrop, KindDrop},
		{struct{ SelectHooker }{}, CapSelect, KindSelect},
		{struct{ UnaryHooker }{}, CapUnary, KindUnary},
		{struct{ BinaryHooker }{}, CapBinary, KindBinary},
		{struct{ LocalHooker }{}, CapLocal, KindLocal},
		{struct{ GlobalHooker }{}, CapGlobal, KindGlobal},
		{struct{ LoadHooker }{}, CapLoad, KindLoad},
		{struct{ StoreHooker }{}, CapStore, KindStore},
		{struct{ MemorySizeHooker }{}, CapMemorySize, KindMemorySize},
		{struct{ MemoryGrowHooker }{}, CapMemoryGrow, KindMemoryGrow},
		{struct{ CallPreHooker }{}, CapCallPre, KindCall},
		{struct{ CallPostHooker }{}, CapCallPost, KindCall},
		{struct{ ReturnHooker }{}, CapReturn, KindReturn},
		{struct{ StartHooker }{}, CapStart, KindStart},
		{struct{ BlockCoverageHooker }{}, CapBlockCoverage, KindBlockProbe},
	} {
		cbs, caps := Bind(tc.a)
		if caps != tc.cap {
			t.Errorf("%T: caps %b, want %b", tc.a, caps, tc.cap)
		}
		if cbs.Of(tc.cap) == nil {
			t.Errorf("%T: no callback bound for its bit", tc.a)
		}
		if got := caps.HookSet(); got != Set(tc.kind) {
			t.Errorf("%T: hook set %s, want %s", tc.a, got, tc.kind)
		}
		if !tc.kind.Caps().Has(tc.cap) {
			t.Errorf("%s: caps %b lack %b", tc.kind, tc.kind.Caps(), tc.cap)
		}
	}
	if AllCaps|CapBlockCoverage != 1<<NumCaps-1 {
		t.Errorf("AllCaps|CapBlockCoverage = %b, want all %d table bits", AllCaps|CapBlockCoverage, NumCaps)
	}
}
