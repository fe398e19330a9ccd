package core

// Hook keys: every monomorphic hook of a run has one dense integer key, a
// family offset plus the value that monomorphizes the hook. A hook with one
// instance is keyed by its kind; the others by their opcode, their opcode
// and value type, their block-kind code, or the module type index of the
// signature they carry. The run's registry keeps one slot per key
// (hookRegistry.get), so emitting a hook the run has seen before costs one
// atomic load, and the hook's spec — name, payload types — is built only on
// the first use of its key.

import (
	"wasabi/internal/analysis"
	"wasabi/internal/wasm"
)

// The key families, laid out back to back. A hook with one instance is
// keyed by its kind, below keyOp.
const (
	// keyOp + opcode: const, unary, binary, load and store (disjoint opcodes).
	keyOp = analysis.NumKinds
	// keyTyped + typedKey: drop, select, local.get/set/tee, global.get/set.
	keyTyped = keyOp + 256
	// keyBegin and keyEnd + block-kind code.
	keyBegin = keyTyped + int(wasm.OpGlobalSet-wasm.OpDrop+1)*numValTypes
	keyEnd   = keyBegin + analysis.NumBlockKinds
	// keyCall + callKey: call_pre, indirect call_pre, call_post and return.
	keyCall = keyEnd + analysis.NumBlockKinds
)

// typedKey is the key offset of a hook monomorphized on an opcode between
// drop and global.set and a value type.
func typedKey(op wasm.Opcode, t wasm.ValType) int {
	return keyTyped + int(op-wasm.OpDrop)*numValTypes + vtIdx(t)
}

// The hooks carrying a signature, keyed by module type index: calls by the
// callee's, return by the returning function's.
const (
	callPre = iota
	callPreIndirect
	callPost
	callReturn
	numCallFamilies
)

// callKey is the key offset of the call-family hook for module type typeIdx.
func callKey(typeIdx uint32, family int) int {
	return keyCall + int(typeIdx)*numCallFamilies + family
}

// numKeys is the size of the key space for a module with numTypes types.
func numKeys(numTypes int) int { return keyCall + numTypes*numCallFamilies }

// emitHook emits the call of the hook with the given key. spec builds the
// hook's spec; it runs only on the run's first use of the key.
func (fi *funcInstrumenter) emitHook(key int, spec func() analysis.EventSpec) {
	fi.emitCall(wasm.Call(fi.hooks.get(key, spec)))
}
