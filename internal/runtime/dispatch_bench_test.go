package runtime

// Micro-benchmarks for the compiled trampolines: one per hook kind, hooked
// (analysis implements the callback) vs no-op-bound (it does not), plus an
// allocation guard proving that dispatch of EVERY hook is allocation-free —
// including the slice-carrying ones (call_pre/call_post/return value
// vectors, br_table's resolved-target table), which hand the analysis a
// borrowed, engine-pooled buffer under the analysis.Values ownership
// contract instead of a fresh allocation.

import (
	"fmt"
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/interp"
)

// counting implements every hook interface with an allocation-free body, so
// benchmark and guard numbers measure dispatch, not the analysis.
type counting struct{ n int }

func (c *counting) Nop(analysis.Location)                               { c.n++ }
func (c *counting) Unreachable(analysis.Location)                       { c.n++ }
func (c *counting) If(analysis.Location, bool)                          { c.n++ }
func (c *counting) Br(analysis.Location, analysis.BranchTarget)         { c.n++ }
func (c *counting) BrIf(analysis.Location, analysis.BranchTarget, bool) { c.n++ }
func (c *counting) BrTable(_ analysis.Location, _ []analysis.BranchTarget, _ analysis.BranchTarget, _ uint32) {
	c.n++
}
func (c *counting) Begin(analysis.Location, analysis.BlockKind)                    { c.n++ }
func (c *counting) End(analysis.Location, analysis.BlockKind, analysis.Location)   { c.n++ }
func (c *counting) Const(analysis.Location, analysis.Value)                        { c.n++ }
func (c *counting) Drop(analysis.Location, analysis.Value)                         { c.n++ }
func (c *counting) Select(analysis.Location, bool, analysis.Value, analysis.Value) { c.n++ }
func (c *counting) Unary(analysis.Location, string, analysis.Value, analysis.Value) {
	c.n++
}
func (c *counting) Binary(analysis.Location, string, analysis.Value, analysis.Value, analysis.Value) {
	c.n++
}
func (c *counting) Local(analysis.Location, string, uint32, analysis.Value)          { c.n++ }
func (c *counting) Global(analysis.Location, string, uint32, analysis.Value)         { c.n++ }
func (c *counting) Load(analysis.Location, string, analysis.MemArg, analysis.Value)  { c.n++ }
func (c *counting) Store(analysis.Location, string, analysis.MemArg, analysis.Value) { c.n++ }
func (c *counting) MemorySize(analysis.Location, uint32)                             { c.n++ }
func (c *counting) MemoryGrow(analysis.Location, uint32, uint32)                     { c.n++ }
func (c *counting) CallPre(analysis.Location, int, []analysis.Value, int64)          { c.n++ }
func (c *counting) CallPost(analysis.Location, []analysis.Value)                     { c.n++ }
func (c *counting) Return(analysis.Location, []analysis.Value)                       { c.n++ }
func (c *counting) Start(analysis.Location)                                          { c.n++ }
func (c *counting) BlockCovered(analysis.Location, int)                              { c.n++ }

// sliceCarrying reports whether dispatching the hook hands the analysis a
// borrowed vector (the hooks the pooled-buffer convention exists for).
func sliceCarrying(spec *core.HookSpec) bool {
	switch spec.Kind {
	case analysis.KindBrTable:
		return true
	case analysis.KindReturn:
		return len(spec.Types) > 0
	case analysis.KindCall:
		if spec.Post {
			return len(spec.Types) > 0
		}
		return len(spec.Types) > 1 // Types[0] is the scalar target word
	}
	return false
}

// dispatchFixture compiles every trampoline of one parity spec set twice:
// against a full analysis and against an empty one.
type dispatchFixture struct {
	inst   *interp.Instance
	specs  []*core.HookSpec
	hooked []hookFn
	noop   []hookFn
}

func newDispatchFixture(t testing.TB, set paritySet) *dispatchFixture {
	t.Helper()
	md := set.md
	full := New(md, &counting{})
	empty := New(md, struct{}{})
	inst, err := interp.Instantiate(set.instrumented, full.Imports())
	if err != nil {
		t.Fatal(err)
	}
	fx := &dispatchFixture{inst: inst}
	hooked, noop := hostFuncs(full), hostFuncs(empty)
	for i := range md.Hooks {
		spec := &md.Hooks[i]
		if hooked[i].NoOp {
			t.Fatalf("hook %s: full analysis bound to no-op", spec.Name)
		}
		if !noop[i].NoOp {
			t.Fatalf("hook %s: empty analysis not bound to no-op", spec.Name)
		}
		fx.specs = append(fx.specs, spec)
		fx.hooked = append(fx.hooked, hooked[i].Fast)
		fx.noop = append(fx.noop, noop[i].Fast)
	}
	return fx
}

// kindRep picks one representative spec per hook kind (preferring i64-free
// layouts so per-kind numbers are comparable).
func (fx *dispatchFixture) kindRep() map[analysis.HookKind]int {
	rep := map[analysis.HookKind]int{}
	for i, spec := range fx.specs {
		if _, ok := rep[spec.Kind]; !ok {
			rep[spec.Kind] = i
		}
	}
	return rep
}

func BenchmarkDispatch(b *testing.B) {
	fx := newDispatchFixture(b, paritySets(b)[0])
	rep := fx.kindRep()
	for k := analysis.HookKind(0); k < analysis.HookKind(analysis.NumKinds); k++ {
		i, ok := rep[k]
		if !ok {
			continue
		}
		spec := fx.specs[i]
		args := synthArgs(spec, spec.Layout().Arity)
		b.Run(fmt.Sprintf("%v/hooked", k), func(b *testing.B) {
			b.ReportAllocs()
			fn := fx.hooked[i]
			for n := 0; n < b.N; n++ {
				if err := fn(fx.inst, args); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%v/noop", k), func(b *testing.B) {
			b.ReportAllocs()
			fn := fx.noop[i]
			for n := 0; n < b.N; n++ {
				if err := fn(fx.inst, args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDispatchZeroAllocs is the allocation guard: every hook — including the
// slice-carrying call/return and br_table hooks, which now fill borrowed,
// engine-pooled vectors — must dispatch with 0 allocs/op, hooked or not.
// This pins down the zero-copy convention and the borrowed-buffer convention
// end to end: any accidental escape of the argument window, re-introduced
// per-call decoding buffer, or pool-defeating slice-header boxing fails the
// guard.
func TestDispatchZeroAllocs(t *testing.T) {
	sawSliceCarrying := false
	for _, set := range paritySets(t) {
		fx := newDispatchFixture(t, set)
		for i, spec := range fx.specs {
			sawSliceCarrying = sawSliceCarrying || sliceCarrying(spec)
			args := synthArgs(spec, spec.Layout().Arity)
			for name, fn := range map[string]hookFn{"hooked": fx.hooked[i], "noop": fx.noop[i]} {
				allocs := testing.AllocsPerRun(200, func() {
					if err := fn(fx.inst, args); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s: hook %s (%s): %.1f allocs/op, want 0", set.name, spec.Name, name, allocs)
				}
			}
		}
	}
	if !sawSliceCarrying {
		t.Error("fixture exercised no slice-carrying hook; the borrowed-buffer guard is vacuous")
	}
}
