package wasm

import "fmt"

// Module is the AST of a WebAssembly module (one binary file): types,
// imports, functions, at most one table and memory, globals, exports, an
// optional start function, element and data segments, and custom sections.
type Module struct {
	Types    []FuncType
	Imports  []Import
	Funcs    []Func // functions defined in this module (after imported ones in the index space)
	Tables   []Limits
	Memories []Limits
	Globals  []Global
	Exports  []Export
	Start    *uint32
	Elems    []ElemSegment
	Datas    []DataSegment

	// FuncNames holds the contents of the "name" custom section's function
	// name subsection, keyed by function index. Optional.
	FuncNames map[uint32]string

	// Customs preserves custom sections other than "name" byte-for-byte.
	Customs []CustomSection
}

// Import declares an external dependency. Exactly one of the typed
// descriptor fields is meaningful, selected by Kind.
type Import struct {
	Module string
	Name   string
	Kind   ExternKind

	TypeIdx uint32     // Kind == ExternFunc: index into Types
	Table   Limits     // Kind == ExternTable
	Mem     Limits     // Kind == ExternMemory
	Global  GlobalType // Kind == ExternGlobal
}

// Func is a function defined inside the module.
type Func struct {
	TypeIdx uint32
	Locals  []ValType // declared locals, excluding parameters
	Body    []Instr   // terminated by an explicit end instruction

	// BrTargets is the pool of br_table (non-default) target labels for this
	// function's body: each br_table instruction stores a span into it (see
	// Instr.BrTableSpan). Keeping the lists out of Instr makes instructions
	// pointer-free, which the instrumenter's throughput depends on. The pool
	// is append-only and may be shared between functions with identical
	// bodies (e.g. a function and its instrumented copy).
	BrTargets []uint32
}

// Global is a global variable with a constant initializer expression.
type Global struct {
	Type GlobalType
	Init []Instr // constant expression, terminated by end
}

// Export makes a function, table, memory, or global visible to the host.
type Export struct {
	Name string
	Kind ExternKind
	Idx  uint32
}

// ElemSegment initializes a range of the table with function indices.
type ElemSegment struct {
	TableIdx uint32
	Offset   []Instr // constant expression
	Funcs    []uint32
}

// DataSegment initializes a range of linear memory.
type DataSegment struct {
	MemIdx uint32
	Offset []Instr // constant expression
	Data   []byte
}

// CustomSection is an uninterpreted custom section.
type CustomSection struct {
	Name string
	Data []byte
}

// NumImportedFuncs returns the number of imported functions, i.e. the index
// of the first defined function in the function index space.
func (m *Module) NumImportedFuncs() int {
	n := 0
	for _, imp := range m.Imports {
		if imp.Kind == ExternFunc {
			n++
		}
	}
	return n
}

// NumImportedGlobals returns the number of imported globals.
func (m *Module) NumImportedGlobals() int {
	n := 0
	for _, imp := range m.Imports {
		if imp.Kind == ExternGlobal {
			n++
		}
	}
	return n
}

// NumFuncs returns the total size of the function index space.
func (m *Module) NumFuncs() int { return m.NumImportedFuncs() + len(m.Funcs) }

// FuncType returns the signature of the function at funcIdx, scanning the
// imports. Callers that resolve many indices build an Index instead.
func (m *Module) FuncType(funcIdx uint32) (FuncType, error) {
	i := funcIdx
	ti, found := uint32(0), false
	for _, imp := range m.Imports {
		if imp.Kind != ExternFunc {
			continue
		}
		if i == 0 {
			ti, found = imp.TypeIdx, true
			break
		}
		i--
	}
	if !found {
		if int(i) >= len(m.Funcs) {
			return FuncType{}, fmt.Errorf("wasm: function index %d out of range (have %d)", funcIdx, m.NumFuncs())
		}
		ti = m.Funcs[i].TypeIdx
	}
	if int(ti) >= len(m.Types) {
		return FuncType{}, fmt.Errorf("wasm: type index %d out of range (have %d)", ti, len(m.Types))
	}
	return m.Types[ti], nil
}

// AddType returns the index of ft in the type section, appending it if not
// yet present. It is the standard way to intern signatures.
func (m *Module) AddType(ft FuncType) uint32 {
	for i, t := range m.Types {
		if t.Equal(ft) {
			return uint32(i)
		}
	}
	m.Types = append(m.Types, ft)
	return uint32(len(m.Types) - 1)
}

// FuncName returns the debug name of a function if the module carries one,
// falling back to the import name or a numeric placeholder.
func (m *Module) FuncName(funcIdx uint32) string {
	if name, ok := m.FuncNames[funcIdx]; ok {
		return name
	}
	i := funcIdx
	for _, imp := range m.Imports {
		if imp.Kind != ExternFunc {
			continue
		}
		if i == 0 {
			return imp.Module + "." + imp.Name
		}
		i--
	}
	return fmt.Sprintf("func%d", funcIdx)
}

// ExportedFunc returns the function index exported under name, if any.
func (m *Module) ExportedFunc(name string) (uint32, bool) {
	for _, e := range m.Exports {
		if e.Kind == ExternFunc && e.Name == name {
			return e.Idx, true
		}
	}
	return 0, false
}

// CountInstrs returns the total static instruction count across all defined
// function bodies. Used for reporting and throughput metrics.
func (m *Module) CountInstrs() int {
	n := 0
	for i := range m.Funcs {
		n += len(m.Funcs[i].Body)
	}
	return n
}
