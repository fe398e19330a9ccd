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
// binary itself: the generated hook table with the br_table records and the
// static module information for the analysis (the EventTable every stream
// and record decoder reads too), and index-space bookkeeping. It is the
// analogue of the JavaScript glue file the original Wasabi generates, and is
// JSON-serializable for the CLI.
type Metadata struct {
	analysis.EventTable
	HookSet analysis.HookSet `json:"hookSet"`

	// NumImportedFuncs is the original module's imported-function count:
	// hook imports occupy indices [NumImportedFuncs, NumImportedFuncs+NumHooks)
	// in the instrumented index space.
	NumImportedFuncs int `json:"numImportedFuncs"`
	NumHooks         int `json:"numHooks"`
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
