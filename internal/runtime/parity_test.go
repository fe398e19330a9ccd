package runtime

// Golden parity suite: every generated EventSpec is dispatched through both
// the old generic Kind-switch dispatcher (kept below as a test-only
// reference implementation) and the production trampolines, on identical
// lowered argument vectors, and the resulting high-level hook invocations
// must match event for event — including i64 lo/hi re-joins, br_table
// end-replay, and indirect-call table resolution. The spec sets cover every
// hook kind and therefore every hook-plan shape.

import (
	"fmt"
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/builder"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/static"
	"wasabi/internal/wasm"
)

// recorder implements every hook interface and records each invocation as a
// formatted event string.
type recorder struct{ events []string }

func (r *recorder) log(format string, args ...any) {
	r.events = append(r.events, fmt.Sprintf(format, args...))
}

func (r *recorder) Nop(l analysis.Location)         { r.log("nop %v", l) }
func (r *recorder) Unreachable(l analysis.Location) { r.log("unreachable %v", l) }
func (r *recorder) If(l analysis.Location, c bool)  { r.log("if %v %v", l, c) }
func (r *recorder) Br(l analysis.Location, t analysis.BranchTarget) {
	r.log("br %v %v", l, t)
}
func (r *recorder) BrIf(l analysis.Location, t analysis.BranchTarget, c bool) {
	r.log("br_if %v %v %v", l, t, c)
}
func (r *recorder) BrTable(l analysis.Location, tbl []analysis.BranchTarget, d analysis.BranchTarget, i uint32) {
	r.log("br_table %v %v %v %d", l, tbl, d, i)
}
func (r *recorder) Begin(l analysis.Location, k analysis.BlockKind) { r.log("begin %v %v", l, k) }
func (r *recorder) End(l analysis.Location, k analysis.BlockKind, b analysis.Location) {
	r.log("end %v %v %v", l, k, b)
}
func (r *recorder) Const(l analysis.Location, v analysis.Value) { r.log("const %v %v", l, v) }
func (r *recorder) Drop(l analysis.Location, v analysis.Value)  { r.log("drop %v %v", l, v) }
func (r *recorder) Select(l analysis.Location, c bool, a, b analysis.Value) {
	r.log("select %v %v %v %v", l, c, a, b)
}
func (r *recorder) Unary(l analysis.Location, op string, in, out analysis.Value) {
	r.log("unary %v %s %v %v", l, op, in, out)
}
func (r *recorder) Binary(l analysis.Location, op string, a, b, res analysis.Value) {
	r.log("binary %v %s %v %v %v", l, op, a, b, res)
}
func (r *recorder) Local(l analysis.Location, op string, i uint32, v analysis.Value) {
	r.log("local %v %s %d %v", l, op, i, v)
}
func (r *recorder) Global(l analysis.Location, op string, i uint32, v analysis.Value) {
	r.log("global %v %s %d %v", l, op, i, v)
}
func (r *recorder) Load(l analysis.Location, op string, m analysis.MemArg, v analysis.Value) {
	r.log("load %v %s %v %v", l, op, m, v)
}
func (r *recorder) Store(l analysis.Location, op string, m analysis.MemArg, v analysis.Value) {
	r.log("store %v %s %v %v", l, op, m, v)
}
func (r *recorder) MemorySize(l analysis.Location, p uint32) { r.log("memory_size %v %d", l, p) }
func (r *recorder) MemoryGrow(l analysis.Location, d, p uint32) {
	r.log("memory_grow %v %d %d", l, d, p)
}
func (r *recorder) CallPre(l analysis.Location, t int, args []analysis.Value, ti int64) {
	r.log("call_pre %v %d %v %d", l, t, args, ti)
}
func (r *recorder) CallPost(l analysis.Location, res []analysis.Value) {
	r.log("call_post %v %v", l, res)
}
func (r *recorder) Return(l analysis.Location, res []analysis.Value) {
	r.log("return %v %v", l, res)
}
func (r *recorder) Start(l analysis.Location) { r.log("start %v", l) }
func (r *recorder) BlockCovered(l analysis.Location, end int) {
	r.log("block_probe %v %d", l, end)
}

// parityModule generates hooks covering every per-instruction kind and every
// lowered layout shape, including i64 monomorphizations, a br_table (for
// metadata), an indirect call through a table, an i64-heavy call signature,
// and a start function.
func parityModule() *wasm.Module {
	b := builder.New()
	b.Memory(1)
	b.Table(4)
	g64 := b.GlobalI64(true, 5)

	init := b.Func("", nil, nil)
	init.Op(wasm.OpNop)
	init.Done()
	b.Start(init.Index)

	callee := b.Func("callee", builder.V(wasm.I64, wasm.F64, wasm.I32), builder.V(wasm.I64))
	callee.Get(0)
	callee.Done()

	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	l64 := f.Local(wasm.I64)
	f.Op(wasm.OpNop)
	f.I64(1 << 40).Set(l64)                      // i64 const + local
	f.Get(l64).I64(3).Op(wasm.OpI64Add).Set(l64) // i64 binary
	f.Get(l64).Op(wasm.OpI64Eqz).Drop()          // i64 unary, i32 drop
	f.Get(l64).Drop()                            // i64 drop
	f.GGet(g64).GSet(g64)                        // i64 global
	f.I32(8).Get(l64).Store(wasm.OpI64Store, 0)  // i64 store
	f.I32(8).Load(wasm.OpI64Load, 0).Drop()      // i64 load
	f.Get(l64).Get(l64).Get(0).Select()          // i64 select
	f.Drop()                                     //
	f.Op(wasm.OpMemorySize).Drop()               // memory_size
	f.I32(1).Op(wasm.OpMemoryGrow).Drop()        // memory_grow
	f.I64(7).F64(2.5).Get(0).Call(callee.Index)  // direct call, i64 sig
	f.Op(wasm.OpI32WrapI64).Drop()               //
	f.I64(9).F64(1.5).Get(0).I32(0)              // args + table idx
	f.CallIndirect(builder.V(wasm.I64, wasm.F64, wasm.I32), builder.V(wasm.I64))
	f.Op(wasm.OpI32WrapI64).Drop()
	f.Block().Get(0).BrIf(0).Op(wasm.OpUnreachable).End() // unreachable (branched over)
	f.Block().Block()
	f.Get(0).BrTable([]uint32{0}, 1) // br_table with metadata
	f.End().End()
	f.Block().Get(0).BrIf(0).Br(0).End() // br_if + br
	f.Get(0)
	f.If().Op(wasm.OpNop).Else().Op(wasm.OpNop).End()
	f.Loop().End()
	f.Get(0)
	f.Done()
	b.Elem(0, callee.Index)
	return b.Build()
}

// paritySet is one instrumentation of the parity module.
type paritySet struct {
	name         string
	instrumented *wasm.Module
	md           *core.Metadata
}

// paritySets instruments the parity module for every per-instruction hook,
// and for block probes placed by a static plan (probes exist only where a
// plan places them).
func paritySets(t testing.TB) []paritySet {
	t.Helper()
	all := paritySet{name: "all"}
	var err error
	if all.instrumented, all.md, err = core.Instrument(parityModule(), core.Options{Hooks: analysis.AllHooks}); err != nil {
		t.Fatal(err)
	}
	probes := paritySet{name: "block_probe"}
	hooks := analysis.HookSet(0).With(analysis.KindBlockProbe)
	m := parityModule()
	plan, err := static.PlanFor(m, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if probes.instrumented, probes.md, err = core.Instrument(m, core.Options{Hooks: hooks, Plan: plan}); err != nil {
		t.Fatal(err)
	}
	return []paritySet{all, probes}
}

// hostFuncs returns the host function Imports bound to each hook, in
// metadata order.
func hostFuncs(rt *Runtime) []*interp.HostFunc {
	fields := rt.Imports()[core.HookModule]
	hfs := make([]*interp.HostFunc, len(rt.meta.Specs))
	for i := range rt.meta.Specs {
		hfs[i] = fields[rt.meta.Specs[i].Name].(*interp.HostFunc)
	}
	return hfs
}

// callFast calls hf's Fast entry and returns the trap it panics with, or
// nil when it returns.
func callFast(hf *interp.HostFunc, inst *interp.Instance, args []interp.Value) (err error) {
	defer func() {
		if r := recover(); r != nil {
			trap, ok := r.(*interp.Trap)
			if !ok {
				panic(r)
			}
			err = trap
		}
	}()
	hf.Fast(inst, args)
	return nil
}

// synthArgs builds a deterministic lowered argument vector for a spec: every
// word gets a distinctive pattern so wrong offsets or a missed i64 re-join
// change the observed events.
func synthArgs(spec *analysis.EventSpec, n int) []interp.Value {
	args := make([]interp.Value, n)
	for p := range args {
		args[p] = uint64(uint32(0x9E3779B9*uint32(p+1) + uint32(spec.Kind)))
	}
	// Location words: small positive indices.
	if n > 0 {
		args[0] = 3
	}
	if n > 1 {
		args[1] = 17
	}
	// Metadata-indexing and table-indexing words must be in range.
	if spec.Kind == analysis.KindBrTable && n > 3 {
		args[2] = 0 // metadata index
		args[3] = 1 // runtime branch index
	}
	if spec.Kind == analysis.KindCall && !spec.Post && n > 2 {
		args[2] = 0 // table slot 0 / function index 0
	}
	return args
}

// parityVectors returns the argument vectors the parity suites dispatch a
// hook with: synthArgs, plus the default entry of a br_table (an index past
// its targets) and an unresolvable table index of an indirect call.
func parityVectors(spec *analysis.EventSpec) [][]interp.Value {
	arity := len(spec.WasmType().Params)
	vectors := [][]interp.Value{synthArgs(spec, arity)}
	if spec.Kind == analysis.KindBrTable {
		v := synthArgs(spec, arity)
		v[3] = 99
		vectors = append(vectors, v)
	}
	if spec.Kind == analysis.KindCall && !spec.Post && spec.Indirect {
		v := synthArgs(spec, arity)
		v[2] = 1000
		vectors = append(vectors, v)
	}
	return vectors
}

func TestTrampolineParityWithGenericDispatch(t *testing.T) {
	seenKinds := map[analysis.HookKind]bool{}
	for _, set := range paritySets(t) {
		md := set.md
		// One runtime for the trampolines, one recorder per dispatcher.
		recT, recG := &recorder{}, &recorder{}
		rtT := New(md, recT)
		inst, err := interp.Instantiate(set.instrumented, rtT.Imports())
		if err != nil {
			t.Fatal(err)
		}
		ref := &reference{meta: md, a: recG, inst: inst} // resolves indirect calls via the same instance

		for i, hf := range hostFuncs(rtT) {
			spec := &md.Specs[i]
			seenKinds[spec.Kind] = true
			if hf.NoOp {
				t.Errorf("%s: hook %s bound no-op although the analysis implements everything", set.name, spec.Name)
				continue
			}
			for vi, args := range parityVectors(spec) {
				recT.events, recG.events = nil, nil
				errT := callFast(hf, inst, args)
				errG := ref.dispatch(spec, args)
				if (errT == nil) != (errG == nil) {
					t.Errorf("%s: hook %s vector %d: trampoline err %v, reference err %v", set.name, spec.Name, vi, errT, errG)
					continue
				}
				if len(recT.events) != len(recG.events) {
					t.Errorf("%s: hook %s vector %d: %d trampoline events vs %d reference events\n%v\n%v",
						set.name, spec.Name, vi, len(recT.events), len(recG.events), recT.events, recG.events)
					continue
				}
				for j := range recT.events {
					if recT.events[j] != recG.events[j] {
						t.Errorf("%s: hook %s vector %d event %d:\n  trampoline: %s\n  reference:  %s",
							set.name, spec.Name, vi, j, recT.events[j], recG.events[j])
					}
				}
			}
		}

		// End-to-end: the full instrumented run (start function included)
		// through the trampolines must see the exact event stream of a
		// reference-dispatched run.
		runEvents := func(viaReference bool) []string {
			rec := &recorder{}
			rt := New(md, rec)
			imports := rt.Imports()
			if viaReference {
				imports = (&reference{meta: md, a: rec}).imports()
			}
			in2, err := interp.Instantiate(set.instrumented, imports)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := in2.Invoke("f", interp.I32(1)); err != nil {
				t.Fatal(err)
			}
			return rec.events
		}
		gotT, gotG := runEvents(false), runEvents(true)
		if len(gotT) == 0 {
			t.Fatalf("%s: end-to-end run produced no events", set.name)
		}
		if len(gotT) != len(gotG) {
			t.Fatalf("%s: end-to-end: %d trampoline events vs %d reference events", set.name, len(gotT), len(gotG))
		}
		for i := range gotT {
			if gotT[i] != gotG[i] {
				t.Errorf("%s: end-to-end event %d:\n  trampoline: %s\n  reference:  %s", set.name, i, gotT[i], gotG[i])
			}
		}
	}

	// The spec sets must have monomorphized every hook kind, or the suite
	// is weaker than it claims.
	for k := analysis.HookKind(0); k < analysis.HookKind(analysis.NumKinds); k++ {
		if !seenKinds[k] {
			t.Errorf("parity spec sets generated no %v hook", k)
		}
	}
}

// ---------------------------------------------------------------------------
// Reference implementation: the pre-trampoline generic dispatcher. Production
// code no longer uses it, and it shares no code with the hook plans: it binds
// callbacks by type assertion per call and decodes arguments sequentially.
// It exists to pin down trampoline behavior.
// ---------------------------------------------------------------------------

// reference dispatches hook calls to analysis a.
type reference struct {
	meta *core.Metadata
	a    any
	inst *interp.Instance // for table resolution; set by the first hook call when nil
}

// imports exposes the reference dispatcher as hook imports, for the
// end-to-end leg of the parity suite.
func (ref *reference) imports() interp.Imports {
	fields := make(map[string]any, len(ref.meta.Specs))
	for i := range ref.meta.Specs {
		spec := &ref.meta.Specs[i]
		fields[spec.Name] = &interp.HostFunc{
			Type: spec.WasmType(),
			Fn: func(inst *interp.Instance, args []interp.Value) ([]interp.Value, error) {
				if ref.inst == nil {
					ref.inst = inst
				}
				return nil, ref.dispatch(spec, args)
			},
		}
	}
	return interp.Imports{core.HookModule: fields}
}

// argReader decodes the raw lowered argument vector of a hook call.
type argReader struct {
	args []interp.Value
	pos  int
}

func (ar *argReader) i32() int32 { v := int32(uint32(ar.args[ar.pos])); ar.pos++; return v }

func (ar *argReader) u32() uint32 { v := uint32(ar.args[ar.pos]); ar.pos++; return v }

func (ar *argReader) value(t wasm.ValType) analysis.Value {
	if t == wasm.I64 {
		lo := uint64(uint32(ar.args[ar.pos]))
		hi := uint64(uint32(ar.args[ar.pos+1]))
		ar.pos += 2
		return analysis.Value{Type: wasm.I64, Bits: hi<<32 | lo}
	}
	v := analysis.Value{Type: t, Bits: ar.args[ar.pos]}
	ar.pos++
	return v
}

func (ar *argReader) values(ts []wasm.ValType) []analysis.Value {
	if len(ts) == 0 {
		return nil
	}
	vs := make([]analysis.Value, len(ts))
	for i, t := range ts {
		vs[i] = ar.value(t)
	}
	return vs
}

func (ref *reference) dispatch(spec *analysis.EventSpec, args []interp.Value) error {
	ar := &argReader{args: args}
	loc := analysis.Location{Func: int(ar.i32()), Instr: int(ar.i32())}
	a := ref.a

	switch spec.Kind {
	case analysis.KindNop:
		if h, ok := a.(analysis.NopHooker); ok {
			h.Nop(loc)
		}
	case analysis.KindUnreachable:
		if h, ok := a.(analysis.UnreachableHooker); ok {
			h.Unreachable(loc)
		}
	case analysis.KindIf:
		if h, ok := a.(analysis.IfHooker); ok {
			h.If(loc, ar.u32() != 0)
		}
	case analysis.KindBr:
		if h, ok := a.(analysis.BrHooker); ok {
			label := ar.u32()
			instr := int(ar.i32())
			h.Br(loc, analysis.BranchTarget{Label: label, Location: analysis.Location{Func: loc.Func, Instr: instr}})
		}
	case analysis.KindBrIf:
		if h, ok := a.(analysis.BrIfHooker); ok {
			label := ar.u32()
			instr := int(ar.i32())
			cond := ar.u32() != 0
			h.BrIf(loc, analysis.BranchTarget{Label: label, Location: analysis.Location{Func: loc.Func, Instr: instr}}, cond)
		}
	case analysis.KindBrTable:
		return ref.dispatchBrTable(loc, ar)
	case analysis.KindBegin:
		if h, ok := a.(analysis.BeginHooker); ok {
			h.Begin(loc, spec.Block)
		}
	case analysis.KindEnd:
		if h, ok := a.(analysis.EndHooker); ok {
			begin := int(ar.i32())
			h.End(loc, spec.Block, analysis.Location{Func: loc.Func, Instr: begin})
		}
	case analysis.KindConst:
		if h, ok := a.(analysis.ConstHooker); ok {
			h.Const(loc, ar.value(spec.Types[0]))
		}
	case analysis.KindDrop:
		if h, ok := a.(analysis.DropHooker); ok {
			h.Drop(loc, ar.value(spec.Types[0]))
		}
	case analysis.KindSelect:
		if h, ok := a.(analysis.SelectHooker); ok {
			cond := ar.u32() != 0
			first := ar.value(spec.Types[1])
			second := ar.value(spec.Types[2])
			h.Select(loc, cond, first, second)
		}
	case analysis.KindUnary:
		if h, ok := a.(analysis.UnaryHooker); ok {
			in := ar.value(spec.Types[0])
			out := ar.value(spec.Types[1])
			h.Unary(loc, spec.Op.String(), in, out)
		}
	case analysis.KindBinary:
		if h, ok := a.(analysis.BinaryHooker); ok {
			x := ar.value(spec.Types[0])
			y := ar.value(spec.Types[1])
			res := ar.value(spec.Types[2])
			h.Binary(loc, spec.Op.String(), x, y, res)
		}
	case analysis.KindLocal:
		if h, ok := a.(analysis.LocalHooker); ok {
			idx := ar.u32()
			h.Local(loc, spec.Op.String(), idx, ar.value(spec.Types[1]))
		}
	case analysis.KindGlobal:
		if h, ok := a.(analysis.GlobalHooker); ok {
			idx := ar.u32()
			h.Global(loc, spec.Op.String(), idx, ar.value(spec.Types[1]))
		}
	case analysis.KindLoad:
		if h, ok := a.(analysis.LoadHooker); ok {
			offset := ar.u32()
			addr := ar.u32()
			h.Load(loc, spec.Op.String(), analysis.MemArg{Addr: addr, Offset: offset}, ar.value(spec.Types[2]))
		}
	case analysis.KindStore:
		if h, ok := a.(analysis.StoreHooker); ok {
			offset := ar.u32()
			addr := ar.u32()
			h.Store(loc, spec.Op.String(), analysis.MemArg{Addr: addr, Offset: offset}, ar.value(spec.Types[2]))
		}
	case analysis.KindMemorySize:
		if h, ok := a.(analysis.MemorySizeHooker); ok {
			h.MemorySize(loc, ar.u32())
		}
	case analysis.KindMemoryGrow:
		if h, ok := a.(analysis.MemoryGrowHooker); ok {
			delta := ar.u32()
			h.MemoryGrow(loc, delta, ar.u32())
		}
	case analysis.KindCall:
		ref.dispatchCall(loc, spec, ar)
	case analysis.KindReturn:
		if h, ok := a.(analysis.ReturnHooker); ok {
			h.Return(loc, ar.values(spec.Types))
		}
	case analysis.KindStart:
		if h, ok := a.(analysis.StartHooker); ok {
			h.Start(loc)
		}
	case analysis.KindBlockProbe:
		if h, ok := a.(analysis.BlockCoverageHooker); ok {
			h.BlockCovered(loc, int(ar.i32()))
		}
	}
	return nil
}

func (ref *reference) dispatchCall(loc analysis.Location, spec *analysis.EventSpec, ar *argReader) {
	if spec.Post {
		if h, ok := ref.a.(analysis.CallPostHooker); ok {
			h.CallPost(loc, ar.values(spec.Types))
		}
		return
	}
	h, ok := ref.a.(analysis.CallPreHooker)
	if !ok {
		return
	}
	first := ar.u32()
	args := ar.values(spec.Types[1:])
	if !spec.Indirect {
		h.CallPre(loc, int(first), args, -1)
		return
	}
	target := -1
	if ref.inst != nil {
		if fidx := ref.inst.ResolveTable(first); fidx >= 0 {
			target = ref.meta.OriginalFuncIdx(int(fidx))
		}
	}
	h.CallPre(loc, target, args, int64(first))
}

func (ref *reference) dispatchBrTable(loc analysis.Location, ar *argReader) error {
	metaIdx := int(ar.i32())
	idx := ar.u32()
	if metaIdx < 0 || metaIdx >= len(ref.meta.BrTables) {
		return &interp.Trap{
			Code: TrapInvalidMetadata,
			Info: fmt.Sprintf("br_table metadata index %d out of range (have %d) at %v", metaIdx, len(ref.meta.BrTables), loc),
		}
	}
	info := &ref.meta.BrTables[metaIdx]

	taken := info.Default
	if int(idx) < len(info.Targets) {
		taken = info.Targets[idx]
	}
	if h, ok := ref.a.(analysis.EndHooker); ok {
		for _, e := range taken.Ends {
			h.End(analysis.Location{Func: loc.Func, Instr: e.End}, e.Kind,
				analysis.Location{Func: loc.Func, Instr: e.Begin})
		}
	}
	if h, ok := ref.a.(analysis.BrTableHooker); ok {
		table := make([]analysis.BranchTarget, len(info.Targets))
		for i, t := range info.Targets {
			table[i] = analysis.BranchTarget{Label: t.Label, Location: analysis.Location{Func: loc.Func, Instr: t.Instr}}
		}
		deflt := analysis.BranchTarget{Label: info.Default.Label, Location: analysis.Location{Func: loc.Func, Instr: info.Default.Instr}}
		h.BrTable(loc, table, deflt, idx)
	}
	return nil
}
