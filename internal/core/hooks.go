package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"wasabi/internal/analysis"
	"wasabi/internal/wasm"
)

// hookRegistry performs on-demand monomorphization (paper §2.4.3): low-level
// hooks are generated lazily, only for the instructions and type
// combinations actually present in the binary. Function bodies are
// instrumented in parallel (paper §3), so the registry is the single
// synchronization point. It holds one atomic slot per hook key
// (hookcache.go): a hook the run has generated costs one load, and only a
// key's first use takes the mutex.
type hookRegistry struct {
	base  uint32          // placeholder index of the first hook (original NumFuncs)
	slots []atomic.Uint32 // per hook key: placeholder index + 1, or 0 before its first use

	mu     sync.Mutex
	byName map[string]uint32 // hook name → ordinal k (placeholder = base + k)
	specs  []analysis.EventSpec
}

// newHookRegistry returns the registry of a run over a module with
// numTypes types whose hook placeholders start at base.
func newHookRegistry(base uint32, numTypes int) *hookRegistry {
	return &hookRegistry{base: base, slots: make([]atomic.Uint32, numKeys(numTypes)), byName: make(map[string]uint32)}
}

// get returns the placeholder function index of the hook with the given
// key, generating the hook on the key's first use from the spec built by
// spec. The hook is looked up by name then, so keys whose specs coincide —
// two type indices with one signature — share one hook.
func (r *hookRegistry) get(key int, spec func() analysis.EventSpec) uint32 {
	if v := r.slots[key].Load(); v != 0 {
		return v - 1
	}
	s := spec()
	r.mu.Lock()
	defer r.mu.Unlock()
	k, ok := r.byName[s.Name]
	if !ok {
		k = uint32(len(r.specs))
		r.byName[s.Name] = k
		r.specs = append(r.specs, s)
	}
	r.slots[key].Store(r.base + k + 1)
	return r.base + k
}

// finalize returns the hooks sorted by name together with a permutation
// mapping the ordinal k used in placeholders to the sorted position. Sorting
// makes the instrumented binary deterministic regardless of the scheduling
// of the parallel instrumentation goroutines.
func (r *hookRegistry) finalize() (specs []analysis.EventSpec, perm []uint32) {
	specs = append([]analysis.EventSpec(nil), r.specs...)
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return specs[order[a]].Name < specs[order[b]].Name })
	perm = make([]uint32, len(specs))
	sorted := make([]analysis.EventSpec, len(specs))
	for newPos, oldK := range order {
		perm[oldK] = uint32(newPos)
		sorted[newPos] = specs[oldK]
	}
	return sorted, perm
}

// Spec constructors, one per hook family. Names are canonical and double as
// import field names and monomorphization keys.

func specSimple(name string, kind analysis.HookKind, payload ...wasm.ValType) analysis.EventSpec {
	return analysis.EventSpec{Name: name, Kind: kind, Types: payload}
}

func specConst(t wasm.ValType) analysis.EventSpec {
	return analysis.EventSpec{Name: "const_" + t.String(), Kind: analysis.KindConst, Types: []wasm.ValType{t}}
}

func specDrop(t wasm.ValType) analysis.EventSpec {
	return analysis.EventSpec{Name: "drop_" + t.String(), Kind: analysis.KindDrop, Types: []wasm.ValType{t}}
}

func specSelect(t wasm.ValType) analysis.EventSpec {
	return analysis.EventSpec{
		Name: "select_" + t.String(), Kind: analysis.KindSelect,
		Types: []wasm.ValType{wasm.I32, t, t}, // cond, first, second
	}
}

func specUnary(op wasm.Opcode) analysis.EventSpec {
	in, out, _ := wasm.NumericSig(op)
	return analysis.EventSpec{
		Name: "unary_" + op.String(), Kind: analysis.KindUnary, Op: op,
		Types: []wasm.ValType{in[0], out[0]},
	}
}

func specBinary(op wasm.Opcode) analysis.EventSpec {
	in, out, _ := wasm.NumericSig(op)
	return analysis.EventSpec{
		Name: "binary_" + op.String(), Kind: analysis.KindBinary, Op: op,
		Types: []wasm.ValType{in[0], in[1], out[0]},
	}
}

func specLoad(op wasm.Opcode) analysis.EventSpec {
	t, _ := op.LoadStoreType()
	return analysis.EventSpec{
		Name: "load_" + op.String(), Kind: analysis.KindLoad, Op: op,
		Types: []wasm.ValType{wasm.I32, wasm.I32, t}, // offset, addr, value
	}
}

func specStore(op wasm.Opcode) analysis.EventSpec {
	t, _ := op.LoadStoreType()
	return analysis.EventSpec{
		Name: "store_" + op.String(), Kind: analysis.KindStore, Op: op,
		Types: []wasm.ValType{wasm.I32, wasm.I32, t},
	}
}

func specLocal(op wasm.Opcode, t wasm.ValType) analysis.EventSpec {
	return analysis.EventSpec{
		Name: op.String() + "_" + t.String(), Kind: analysis.KindLocal, Op: op,
		Types: []wasm.ValType{wasm.I32, t}, // index, value
	}
}

func specGlobal(op wasm.Opcode, t wasm.ValType) analysis.EventSpec {
	return analysis.EventSpec{
		Name: op.String() + "_" + t.String(), Kind: analysis.KindGlobal, Op: op,
		Types: []wasm.ValType{wasm.I32, t},
	}
}

func specCallPre(sig wasm.FuncType, indirect bool) analysis.EventSpec {
	name := "call_pre"
	payload := []wasm.ValType{wasm.I32} // target func idx (direct) or table idx (indirect)
	if indirect {
		name = "call_pre_indirect"
	}
	payload = append(payload, sig.Params...)
	return analysis.EventSpec{
		Name: name + typeSuffix(sig.Params), Kind: analysis.KindCall,
		Types: payload, Indirect: indirect,
	}
}

func specCallPost(results []wasm.ValType) analysis.EventSpec {
	return analysis.EventSpec{
		Name: "call_post" + typeSuffix(results), Kind: analysis.KindCall,
		Types: results, Post: true,
	}
}

func specReturn(results []wasm.ValType) analysis.EventSpec {
	return analysis.EventSpec{
		Name: "return" + typeSuffix(results), Kind: analysis.KindReturn,
		Types: results,
	}
}

func specIf() analysis.EventSpec {
	return specSimple("if", analysis.KindIf, wasm.I32)
}

func specBr() analysis.EventSpec {
	// payload: raw label, resolved target instruction index
	return specSimple("br", analysis.KindBr, wasm.I32, wasm.I32)
}

func specBrIf() analysis.EventSpec {
	// payload: raw label, resolved target, condition
	return specSimple("br_if", analysis.KindBrIf, wasm.I32, wasm.I32, wasm.I32)
}

func specBrTable() analysis.EventSpec {
	// payload: metadata table index, runtime branch index
	return specSimple("br_table", analysis.KindBrTable, wasm.I32, wasm.I32)
}

func specBegin(kind analysis.BlockKind) analysis.EventSpec {
	return analysis.EventSpec{Name: "begin_" + string(kind), Kind: analysis.KindBegin, Block: kind}
}

func specEnd(kind analysis.BlockKind) analysis.EventSpec {
	// payload: instruction index of the matching begin
	return analysis.EventSpec{
		Name: "end_" + string(kind), Kind: analysis.KindEnd, Block: kind,
		Types: []wasm.ValType{wasm.I32},
	}
}

func specMemorySize() analysis.EventSpec {
	return specSimple("memory_size", analysis.KindMemorySize, wasm.I32)
}

func specMemoryGrow() analysis.EventSpec {
	return specSimple("memory_grow", analysis.KindMemoryGrow, wasm.I32, wasm.I32)
}

func specBlockProbe() analysis.EventSpec {
	// payload: instruction index of the block's last original instruction
	return specSimple("block_probe", analysis.KindBlockProbe, wasm.I32)
}

func specNop() analysis.EventSpec         { return specSimple("nop", analysis.KindNop) }
func specUnreachable() analysis.EventSpec { return specSimple("unreachable", analysis.KindUnreachable) }
func specStart() analysis.EventSpec       { return specSimple("start", analysis.KindStart) }
