package core

import (
	"wasabi/internal/analysis"
	"wasabi/internal/wasm"
)

// fixedHook enumerates the hooks with exactly one monomorphic instance, so
// their cache slot is a plain array element.
type fixedHook uint8

const (
	fhNop fixedHook = iota
	fhUnreachable
	fhStart
	fhIf
	fhBr
	fhBrIf
	fhBrTable
	fhMemorySize
	fhMemoryGrow
	fhBlockProbe
	numFixedHooks
)

func fixedHookSpec(f fixedHook) HookSpec {
	switch f {
	case fhNop:
		return specNop()
	case fhUnreachable:
		return specUnreachable()
	case fhStart:
		return specStart()
	case fhIf:
		return specIf()
	case fhBr:
		return specBr()
	case fhBrIf:
		return specBrIf()
	case fhBrTable:
		return specBrTable()
	case fhMemorySize:
		return specMemorySize()
	case fhMemoryGrow:
		return specMemoryGrow()
	default:
		return specBlockProbe()
	}
}

// hookIdxCache caches resolved hook function indices for one instrumentation
// run, keyed by cheap integers (opcode, dense value-type index, block kind,
// module type index) instead of the hook's monomorphized name. This keeps
// the per-emitted-hook fast path free of string building, slice literals,
// and map hashing: a HookSpec is only constructed on the first use of a hook
// per run, when the shared registry is consulted. Slots store index+1; 0
// means unset.
type hookIdxCache struct {
	byOp   [256]uint32            // unary/binary/load/store hooks (disjoint opcode ranges)
	local  [3][numValTypes]uint32 // local.get/set/tee × value type
	global [2][numValTypes]uint32 // global.get/set × value type
	consts [numValTypes]uint32
	drop   [numValTypes]uint32
	sel    [numValTypes]uint32
	begin  [analysis.NumBlockKinds]uint32
	end    [analysis.NumBlockKinds]uint32
	fixed  [numFixedHooks]uint32
	// Call-related hooks are monomorphized on function signatures; the cache
	// key is the module type index. Distinct type indices with identical
	// lowered signatures are deduplicated by the registry, so the cached
	// indices agree.
	callPre    []uint32
	callPreInd []uint32
	callPost   []uint32
	ret        []uint32
}

// reset clears the cache for a run over a module with numTypes types.
func (c *hookIdxCache) reset(numTypes int) {
	c.byOp = [256]uint32{}
	c.local = [3][numValTypes]uint32{}
	c.global = [2][numValTypes]uint32{}
	c.consts = [numValTypes]uint32{}
	c.drop = [numValTypes]uint32{}
	c.sel = [numValTypes]uint32{}
	c.begin = [analysis.NumBlockKinds]uint32{}
	c.end = [analysis.NumBlockKinds]uint32{}
	c.fixed = [numFixedHooks]uint32{}
	c.callPre = resetIdxSlice(c.callPre, numTypes)
	c.callPreInd = resetIdxSlice(c.callPreInd, numTypes)
	c.callPost = resetIdxSlice(c.callPost, numTypes)
	c.ret = resetIdxSlice(c.ret, numTypes)
}

func resetIdxSlice(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// The emit helpers below resolve a hook through the cache and emit the call
// instruction. Each constructs the HookSpec only on a cache miss.

func (fi *funcInstrumenter) emitCached(slot *uint32, spec HookSpec) {
	*slot = fi.hooks.get(spec) + 1
	fi.emitCall(wasm.Call(*slot - 1))
}

func (fi *funcInstrumenter) emitFixedHook(f fixedHook) {
	if v := fi.cache.fixed[f]; v != 0 {
		fi.emitCall(wasm.Call(v - 1))
		return
	}
	fi.emitCached(&fi.cache.fixed[f], fixedHookSpec(f))
}

// emitOpHook emits the hook for a unary, binary, load, or store opcode.
func (fi *funcInstrumenter) emitOpHook(op wasm.Opcode) {
	if v := fi.cache.byOp[op]; v != 0 {
		fi.emitCall(wasm.Call(v - 1))
		return
	}
	var spec HookSpec
	switch {
	case op.IsLoad():
		spec = specLoad(op)
	case op.IsStore():
		spec = specStore(op)
	case op.IsUnary():
		spec = specUnary(op)
	default:
		spec = specBinary(op)
	}
	fi.emitCached(&fi.cache.byOp[op], spec)
}

func (fi *funcInstrumenter) emitLocalHook(op wasm.Opcode, t wasm.ValType) {
	slot := &fi.cache.local[op-wasm.OpLocalGet][vtIdx(t)]
	if *slot != 0 {
		fi.emitCall(wasm.Call(*slot - 1))
		return
	}
	fi.emitCached(slot, specLocal(op, t))
}

func (fi *funcInstrumenter) emitGlobalHook(op wasm.Opcode, t wasm.ValType) {
	slot := &fi.cache.global[op-wasm.OpGlobalGet][vtIdx(t)]
	if *slot != 0 {
		fi.emitCall(wasm.Call(*slot - 1))
		return
	}
	fi.emitCached(slot, specGlobal(op, t))
}

func (fi *funcInstrumenter) emitConstHook(t wasm.ValType) {
	slot := &fi.cache.consts[vtIdx(t)]
	if *slot != 0 {
		fi.emitCall(wasm.Call(*slot - 1))
		return
	}
	fi.emitCached(slot, specConst(t))
}

func (fi *funcInstrumenter) emitDropHook(t wasm.ValType) {
	slot := &fi.cache.drop[vtIdx(t)]
	if *slot != 0 {
		fi.emitCall(wasm.Call(*slot - 1))
		return
	}
	fi.emitCached(slot, specDrop(t))
}

func (fi *funcInstrumenter) emitSelectHook(t wasm.ValType) {
	slot := &fi.cache.sel[vtIdx(t)]
	if *slot != 0 {
		fi.emitCall(wasm.Call(*slot - 1))
		return
	}
	fi.emitCached(slot, specSelect(t))
}

func (fi *funcInstrumenter) emitBeginHook(kind analysis.BlockKind) {
	slot := &fi.cache.begin[kind.Code()]
	if *slot != 0 {
		fi.emitCall(wasm.Call(*slot - 1))
		return
	}
	fi.emitCached(slot, specBegin(kind))
}

func (fi *funcInstrumenter) emitEndHookCall(kind analysis.BlockKind) {
	slot := &fi.cache.end[kind.Code()]
	if *slot != 0 {
		fi.emitCall(wasm.Call(*slot - 1))
		return
	}
	fi.emitCached(slot, specEnd(kind))
}

func (fi *funcInstrumenter) emitCallPreHook(typeIdx uint32, sig wasm.FuncType, indirect bool) {
	cache := &fi.cache.callPre
	if indirect {
		cache = &fi.cache.callPreInd
	}
	slot := &(*cache)[typeIdx]
	if *slot != 0 {
		fi.emitCall(wasm.Call(*slot - 1))
		return
	}
	fi.emitCached(slot, specCallPre(sig, indirect))
}

func (fi *funcInstrumenter) emitCallPostHook(typeIdx uint32, results []wasm.ValType) {
	slot := &fi.cache.callPost[typeIdx]
	if *slot != 0 {
		fi.emitCall(wasm.Call(*slot - 1))
		return
	}
	fi.emitCached(slot, specCallPost(results))
}

// emitReturnHookCall emits the return hook for the current function,
// cached on the function's type index.
func (fi *funcInstrumenter) emitReturnHookCall() {
	slot := &fi.cache.ret[fi.typeIdx]
	if *slot != 0 {
		fi.emitCall(wasm.Call(*slot - 1))
		return
	}
	fi.emitCached(slot, specReturn(fi.sig.Results))
}
