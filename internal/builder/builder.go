// Package builder provides a programmatic DSL for assembling WebAssembly
// modules. It plays the role of the toolchain (emscripten in the paper):
// the PolyBench workload generators, the synthetic-application generator,
// and many tests construct their modules through it.
package builder

import (
	"wasabi/internal/wasm"
)

// Builder assembles one module.
type Builder struct {
	m           wasm.Module
	importsDone bool
	funcNames   map[uint32]string
}

// New returns an empty module builder.
func New() *Builder {
	return &Builder{funcNames: make(map[uint32]string)}
}

// ImportFunc adds a function import and returns its function index. All
// function imports must be added before the first defined function, since
// imports come first in the index space.
func (b *Builder) ImportFunc(module, name string, ft wasm.FuncType) uint32 {
	if b.importsDone {
		panic("builder: ImportFunc after a function was defined")
	}
	ti := b.m.AddType(ft)
	b.m.Imports = append(b.m.Imports, wasm.Import{Module: module, Name: name, Kind: wasm.ExternFunc, TypeIdx: ti})
	idx := uint32(b.m.NumImportedFuncs() - 1)
	b.funcNames[idx] = module + "." + name
	return idx
}

// Memory declares the module's linear memory with min pages (no max).
func (b *Builder) Memory(minPages uint32) *Builder {
	b.m.Memories = []wasm.Limits{{Min: minPages}}
	return b
}

// ExportMemory exports the memory under the given name.
func (b *Builder) ExportMemory(name string) *Builder {
	b.m.Exports = append(b.m.Exports, wasm.Export{Name: name, Kind: wasm.ExternMemory})
	return b
}

// Table declares the module's funcref table with the given minimum size.
func (b *Builder) Table(min uint32) *Builder {
	b.m.Tables = []wasm.Limits{{Min: min}}
	return b
}

// Elem seeds table slots starting at offset with the given function indices.
func (b *Builder) Elem(offset int32, funcs ...uint32) *Builder {
	b.m.Elems = append(b.m.Elems, wasm.ElemSegment{
		Offset: []wasm.Instr{wasm.I32Const(offset), wasm.End()},
		Funcs:  funcs,
	})
	return b
}

// Data initializes memory at offset with the given bytes.
func (b *Builder) Data(offset int32, data []byte) *Builder {
	b.m.Datas = append(b.m.Datas, wasm.DataSegment{
		Offset: []wasm.Instr{wasm.I32Const(offset), wasm.End()},
		Data:   data,
	})
	return b
}

// GlobalI32 declares an i32 global and returns its index.
func (b *Builder) GlobalI32(mutable bool, init int32) uint32 {
	b.m.Globals = append(b.m.Globals, wasm.Global{
		Type: wasm.GlobalType{Type: wasm.I32, Mutable: mutable},
		Init: []wasm.Instr{wasm.I32Const(init), wasm.End()},
	})
	return uint32(b.m.NumImportedGlobals() + len(b.m.Globals) - 1)
}

// GlobalF64 declares an f64 global and returns its index.
func (b *Builder) GlobalF64(mutable bool, init float64) uint32 {
	b.m.Globals = append(b.m.Globals, wasm.Global{
		Type: wasm.GlobalType{Type: wasm.F64, Mutable: mutable},
		Init: []wasm.Instr{wasm.F64ConstInstr(init), wasm.End()},
	})
	return uint32(b.m.NumImportedGlobals() + len(b.m.Globals) - 1)
}

// GlobalI64 declares an i64 global and returns its index.
func (b *Builder) GlobalI64(mutable bool, init int64) uint32 {
	b.m.Globals = append(b.m.Globals, wasm.Global{
		Type: wasm.GlobalType{Type: wasm.I64, Mutable: mutable},
		Init: []wasm.Instr{wasm.I64ConstInstr(init), wasm.End()},
	})
	return uint32(b.m.NumImportedGlobals() + len(b.m.Globals) - 1)
}

// Start marks funcIdx as the module's start function.
func (b *Builder) Start(funcIdx uint32) *Builder {
	b.m.Start = &funcIdx
	return b
}

// Build finalizes and returns the module.
func (b *Builder) Build() *wasm.Module {
	if len(b.funcNames) > 0 {
		b.m.FuncNames = b.funcNames
	}
	return &b.m
}

// Func starts a new defined function. If name is non-empty the function is
// exported under that name and recorded in the name section.
func (b *Builder) Func(name string, params, results []wasm.ValType) *FuncBuilder {
	b.importsDone = true
	ti := b.m.AddType(wasm.FuncType{Params: params, Results: results})
	b.m.Funcs = append(b.m.Funcs, wasm.Func{TypeIdx: ti})
	idx := uint32(b.m.NumImportedFuncs() + len(b.m.Funcs) - 1)
	if name != "" {
		b.m.Exports = append(b.m.Exports, wasm.Export{Name: name, Kind: wasm.ExternFunc, Idx: idx})
		b.funcNames[idx] = name
	}
	return &FuncBuilder{
		b:         b,
		defined:   len(b.m.Funcs) - 1,
		Index:     idx,
		numParams: len(params),
	}
}

// FuncBuilder emits the body of one function. All emit methods return the
// receiver for chaining.
type FuncBuilder struct {
	b         *Builder
	defined   int
	Index     uint32
	numParams int
	locals    []wasm.ValType
	body      []wasm.Instr
	brTargets []uint32
}

// Local declares a new local of type t and returns its index.
func (fb *FuncBuilder) Local(t wasm.ValType) uint32 {
	fb.locals = append(fb.locals, t)
	return uint32(fb.numParams + len(fb.locals) - 1)
}

// Emit appends raw instructions.
func (fb *FuncBuilder) Emit(ins ...wasm.Instr) *FuncBuilder {
	fb.body = append(fb.body, ins...)
	return fb
}

// Op appends an instruction without immediates.
func (fb *FuncBuilder) Op(ops ...wasm.Opcode) *FuncBuilder {
	for _, op := range ops {
		fb.body = append(fb.body, wasm.Instr{Op: op})
	}
	return fb
}

// I32 appends i32.const v.
func (fb *FuncBuilder) I32(v int32) *FuncBuilder { return fb.Emit(wasm.I32Const(v)) }

// I64 appends i64.const v.
func (fb *FuncBuilder) I64(v int64) *FuncBuilder { return fb.Emit(wasm.I64ConstInstr(v)) }

// F32 appends f32.const v.
func (fb *FuncBuilder) F32(v float32) *FuncBuilder { return fb.Emit(wasm.F32ConstInstr(v)) }

// F64 appends f64.const v.
func (fb *FuncBuilder) F64(v float64) *FuncBuilder { return fb.Emit(wasm.F64ConstInstr(v)) }

// Get appends local.get.
func (fb *FuncBuilder) Get(local uint32) *FuncBuilder { return fb.Emit(wasm.LocalGet(local)) }

// Set appends local.set.
func (fb *FuncBuilder) Set(local uint32) *FuncBuilder { return fb.Emit(wasm.LocalSet(local)) }

// Tee appends local.tee.
func (fb *FuncBuilder) Tee(local uint32) *FuncBuilder { return fb.Emit(wasm.LocalTee(local)) }

// GGet appends global.get.
func (fb *FuncBuilder) GGet(g uint32) *FuncBuilder { return fb.Emit(wasm.GlobalGet(g)) }

// GSet appends global.set.
func (fb *FuncBuilder) GSet(g uint32) *FuncBuilder { return fb.Emit(wasm.GlobalSet(g)) }

// Call appends a direct call.
func (fb *FuncBuilder) Call(funcIdx uint32) *FuncBuilder { return fb.Emit(wasm.Call(funcIdx)) }

// CallIndirect appends call_indirect with the given signature.
func (fb *FuncBuilder) CallIndirect(params, results []wasm.ValType) *FuncBuilder {
	ti := fb.b.m.AddType(wasm.FuncType{Params: params, Results: results})
	return fb.Emit(wasm.Instr{Op: wasm.OpCallIndirect, Idx: ti})
}

// Load appends a load with natural alignment and the given static offset.
func (fb *FuncBuilder) Load(op wasm.Opcode, offset uint32) *FuncBuilder {
	_, size := op.LoadStoreType()
	return fb.Emit(wasm.MemInstr(op, log2(size), offset))
}

// Store appends a store with natural alignment and the given static offset.
func (fb *FuncBuilder) Store(op wasm.Opcode, offset uint32) *FuncBuilder {
	return fb.Load(op, offset) // identical immediate layout
}

// Block opens a block with no result.
func (fb *FuncBuilder) Block() *FuncBuilder { return fb.Emit(wasm.BlockInstr(wasm.BlockEmpty)) }

// Loop opens a loop with no result.
func (fb *FuncBuilder) Loop() *FuncBuilder { return fb.Emit(wasm.LoopInstr(wasm.BlockEmpty)) }

// If opens an if with no result.
func (fb *FuncBuilder) If() *FuncBuilder { return fb.Emit(wasm.IfInstr(wasm.BlockEmpty)) }

// IfT opens an if with one result.
func (fb *FuncBuilder) IfT(t wasm.ValType) *FuncBuilder {
	return fb.Emit(wasm.IfInstr(wasm.BlockType(t)))
}

// Else appends else.
func (fb *FuncBuilder) Else() *FuncBuilder { return fb.Op(wasm.OpElse) }

// End appends end.
func (fb *FuncBuilder) End() *FuncBuilder { return fb.Op(wasm.OpEnd) }

// Br appends br to the n-th enclosing label.
func (fb *FuncBuilder) Br(n uint32) *FuncBuilder { return fb.Emit(wasm.Br(n)) }

// BrIf appends br_if to the n-th enclosing label.
func (fb *FuncBuilder) BrIf(n uint32) *FuncBuilder { return fb.Emit(wasm.BrIf(n)) }

// BrTable appends br_table with the given targets and default.
func (fb *FuncBuilder) BrTable(targets []uint32, deflt uint32) *FuncBuilder {
	return fb.Emit(wasm.AppendBrTable(&fb.brTargets, targets, deflt))
}

// Return appends return.
func (fb *FuncBuilder) Return() *FuncBuilder { return fb.Op(wasm.OpReturn) }

// Drop appends drop.
func (fb *FuncBuilder) Drop() *FuncBuilder { return fb.Op(wasm.OpDrop) }

// Select appends select.
func (fb *FuncBuilder) Select() *FuncBuilder { return fb.Op(wasm.OpSelect) }

// ForI32 emits a canonical counted loop over i in [0, limit):
//
//	i = 0
//	block; loop
//	  if i >= limit: br 1
//	  body
//	  i = i + 1
//	  br 0
//	end; end
//
// limit must push a single i32 (e.g. via Get of a limit local).
func (fb *FuncBuilder) ForI32(i uint32, limit func(*FuncBuilder), body func(*FuncBuilder)) *FuncBuilder {
	fb.I32(0).Set(i)
	fb.Block().Loop()
	fb.Get(i)
	limit(fb)
	fb.Op(wasm.OpI32GeS).BrIf(1)
	body(fb)
	fb.Get(i).I32(1).Op(wasm.OpI32Add).Set(i)
	fb.Br(0)
	fb.End().End()
	return fb
}

// Len returns the number of instructions emitted so far.
func (fb *FuncBuilder) Len() int { return len(fb.body) }

// Done finalizes the function body, appending the terminating end.
func (fb *FuncBuilder) Done() uint32 {
	fb.body = append(fb.body, wasm.End())
	f := &fb.b.m.Funcs[fb.defined]
	f.Locals = fb.locals
	f.Body = fb.body
	f.BrTargets = fb.brTargets
	return fb.Index
}

func log2(v uint32) uint32 {
	n := uint32(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Sig is shorthand for a function type.
func Sig(params []wasm.ValType, results []wasm.ValType) wasm.FuncType {
	return wasm.FuncType{Params: params, Results: results}
}

// V is shorthand for a value-type list.
func V(ts ...wasm.ValType) []wasm.ValType { return ts }
