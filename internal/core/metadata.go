// Package core implements the Wasabi instrumenter, the primary contribution
// of the paper: ahead-of-time binary instrumentation of WebAssembly modules
// that inserts calls to imported low-level analysis hooks between the
// original instructions. It implements selective instrumentation (§2.4.2),
// on-demand monomorphization of polymorphic hooks (§2.4.3), static
// resolution of relative branch labels via an abstract control stack
// (§2.4.4), dynamic block-nesting end hooks (§2.4.5), and i64 splitting for
// the host boundary (§2.4.6).
package core

import (
	"strings"

	"wasabi/internal/analysis"
	"wasabi/internal/wasm"
)

// HookModule is the import module name under which all generated low-level
// hooks are imported.
const HookModule = "wasabi_hooks"

// HookSpec describes one generated low-level hook: its import name, which
// high-level hook kind it dispatches to, the specific opcode (for hooks that
// are monomorphized per instruction, e.g. binary_i32.add), and the logical
// payload types that follow the two i32 location parameters.
//
// The wasm-level signature is derived by lowering the payload: i32, f32, and
// f64 pass through; i64 is split into two i32 halves (lo, hi) because the
// host language of the paper (JavaScript) cannot represent 64-bit integers.
type HookSpec struct {
	Name     string             `json:"name"`
	Kind     analysis.HookKind  `json:"kind"`
	Op       wasm.Opcode        `json:"op,omitempty"`
	Block    analysis.BlockKind `json:"block,omitempty"`
	Types    []wasm.ValType     `json:"types,omitempty"`
	Indirect bool               `json:"indirect,omitempty"`
	Post     bool               `json:"post,omitempty"` // call_post (vs call_pre) for KindCall
}

// WasmType returns the lowered import signature of the hook: two i32
// location parameters followed by the lowered payload, no results.
func (s *HookSpec) WasmType() wasm.FuncType {
	params := []wasm.ValType{wasm.I32, wasm.I32}
	for _, t := range s.Types {
		params = append(params, Lower(t)...)
	}
	return wasm.FuncType{Params: params}
}

// Lower maps one logical value type to its host-boundary representation.
func Lower(t wasm.ValType) []wasm.ValType {
	if t == wasm.I64 {
		return []wasm.ValType{wasm.I32, wasm.I32}
	}
	return []wasm.ValType{t}
}

// typeSuffix builds the monomorphization suffix of a hook name.
func typeSuffix(ts []wasm.ValType) string {
	if len(ts) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, t := range ts {
		sb.WriteByte('_')
		sb.WriteString(t.String())
	}
	return sb.String()
}

// The br_table metadata types live in package analysis, beside the
// EventTable that hands them to stream consumers; the aliases keep their
// instrumenter-side names (and the metadata JSON) unchanged.
type (
	EndInfo        = analysis.EndInfo
	ResolvedTarget = analysis.ResolvedTarget
	BrTableInfo    = analysis.BrTableInfo
)

// Metadata is everything the Wasabi runtime needs beyond the instrumented
// binary itself: the generated hook table, br_table records, index-space
// bookkeeping, and static module information for the analysis. It is the
// analogue of the JavaScript glue file the original Wasabi generates, and is
// JSON-serializable for the CLI.
type Metadata struct {
	Hooks    []HookSpec       `json:"hooks"`
	BrTables []BrTableInfo    `json:"brTables,omitempty"`
	HookSet  analysis.HookSet `json:"hookSet"`

	// NumImportedFuncs is the original module's imported-function count:
	// hook imports occupy indices [NumImportedFuncs, NumImportedFuncs+NumHooks)
	// in the instrumented index space.
	NumImportedFuncs int `json:"numImportedFuncs"`
	NumHooks         int `json:"numHooks"`

	Info analysis.ModuleInfo `json:"-"`
}

// EventTable builds the decode table of the event-stream surface: one
// EventSpec per generated hook, carrying the kind, interned instruction
// name, block kind, and payload types a stream consumer needs to interpret
// packed Event records, plus the br_table records and module information
// callback analyses receive (the table shares them with md). The result is
// immutable; callers build it once per instrumentation and share it across
// streams.
func (md *Metadata) EventTable() *analysis.EventTable {
	specs := make([]analysis.EventSpec, len(md.Hooks))
	for i := range md.Hooks {
		h := &md.Hooks[i]
		es := analysis.EventSpec{
			Kind:     h.Kind,
			Name:     h.Name,
			Block:    h.Block,
			Types:    h.Types,
			Indirect: h.Indirect,
			Post:     h.Post,
		}
		switch h.Kind {
		case analysis.KindUnary, analysis.KindBinary, analysis.KindLocal,
			analysis.KindGlobal, analysis.KindLoad, analysis.KindStore:
			es.Op = h.OpName()
		}
		specs[i] = es
	}
	return &analysis.EventTable{Specs: specs, BrTables: md.BrTables, Info: &md.Info}
}

// OriginalFuncIdx maps a function index of the instrumented index space back
// to the original one (used when resolving indirect-call targets from the
// runtime table, which holds instrumented indices).
func (md *Metadata) OriginalFuncIdx(instrumented int) int {
	if instrumented < md.NumImportedFuncs {
		return instrumented
	}
	return instrumented - md.NumHooks
}
