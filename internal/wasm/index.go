package wasm

import "fmt"

// Index resolves a module's index spaces once, so that per-instruction
// lookups (the type of a call target, the type of a global) cost O(1)
// instead of a scan over the import list. The function index space begins
// with the imported functions, in import order, followed by the functions
// defined in the module; the global index space is laid out the same way.
//
// An Index is a snapshot: it stays valid only while its module's imports,
// functions, globals, tables and memories are not changed.
type Index struct {
	m *Module

	// funcTypes is the type index of every function, imports first.
	funcTypes []uint32
	// funcImports is the position in m.Imports of every imported function.
	funcImports []int
	// globals is the type of every global, imports first.
	globals []GlobalType

	numImportedGlobals  int
	hasTable, hasMemory bool // imported or defined
}

// NewIndex resolves m's function and global index spaces in one pass over
// its imports.
func NewIndex(m *Module) *Index {
	ix := &Index{
		m:         m,
		funcTypes: make([]uint32, 0, len(m.Imports)+len(m.Funcs)),
		hasTable:  len(m.Tables) > 0,
		hasMemory: len(m.Memories) > 0,
	}
	for i := range m.Imports {
		imp := &m.Imports[i]
		switch imp.Kind {
		case ExternFunc:
			ix.funcImports = append(ix.funcImports, i)
			ix.funcTypes = append(ix.funcTypes, imp.TypeIdx)
		case ExternGlobal:
			ix.globals = append(ix.globals, imp.Global)
		case ExternTable:
			ix.hasTable = true
		case ExternMemory:
			ix.hasMemory = true
		}
	}
	ix.numImportedGlobals = len(ix.globals)
	for i := range m.Funcs {
		ix.funcTypes = append(ix.funcTypes, m.Funcs[i].TypeIdx)
	}
	for i := range m.Globals {
		ix.globals = append(ix.globals, m.Globals[i].Type)
	}
	return ix
}

// Module returns the indexed module.
func (ix *Index) Module() *Module { return ix.m }

// NumImportedFuncs returns the number of imported functions, i.e. the index
// of the first defined function in the function index space.
func (ix *Index) NumImportedFuncs() int { return len(ix.funcImports) }

// NumImportedGlobals returns the number of imported globals.
func (ix *Index) NumImportedGlobals() int { return ix.numImportedGlobals }

// NumFuncs returns the size of the function index space.
func (ix *Index) NumFuncs() int { return len(ix.funcTypes) }

// NumGlobals returns the size of the global index space.
func (ix *Index) NumGlobals() int { return len(ix.globals) }

// HasTable reports whether the module imports or defines a table.
func (ix *Index) HasTable() bool { return ix.hasTable }

// HasMemory reports whether the module imports or defines a memory.
func (ix *Index) HasMemory() bool { return ix.hasMemory }

// FuncTypeIdx returns the type index of the function at funcIdx.
func (ix *Index) FuncTypeIdx(funcIdx uint32) (uint32, error) {
	if int(funcIdx) >= len(ix.funcTypes) {
		return 0, fmt.Errorf("wasm: function index %d out of range (have %d)", funcIdx, len(ix.funcTypes))
	}
	return ix.funcTypes[funcIdx], nil
}

// FuncType returns the signature of the function at funcIdx.
func (ix *Index) FuncType(funcIdx uint32) (FuncType, error) {
	ti, err := ix.FuncTypeIdx(funcIdx)
	if err != nil {
		return FuncType{}, err
	}
	if int(ti) >= len(ix.m.Types) {
		return FuncType{}, fmt.Errorf("wasm: type index %d out of range (have %d)", ti, len(ix.m.Types))
	}
	return ix.m.Types[ti], nil
}

// GlobalType returns the type of the global at globalIdx.
func (ix *Index) GlobalType(globalIdx uint32) (GlobalType, error) {
	if int(globalIdx) >= len(ix.globals) {
		return GlobalType{}, fmt.Errorf("wasm: global index %d out of range", globalIdx)
	}
	return ix.globals[globalIdx], nil
}

// FuncName returns the debug name of the function at funcIdx, like
// Module.FuncName, without scanning the imports.
func (ix *Index) FuncName(funcIdx uint32) string {
	if name, ok := ix.m.FuncNames[funcIdx]; ok {
		return name
	}
	if int(funcIdx) < len(ix.funcImports) {
		imp := &ix.m.Imports[ix.funcImports[funcIdx]]
		return imp.Module + "." + imp.Name
	}
	return fmt.Sprintf("func%d", funcIdx)
}
