package static

import (
	"fmt"
	"sort"

	"wasabi/internal/wasm"
)

// CallGraph is the static call graph over the module's function index space
// (imports first, then defined functions). Direct edges come from `call`
// instructions; indirect edges are the type-matched over-approximation of
// `call_indirect`: any function placed in a table by an element segment
// whose type equals the call's declared type is a possible callee.
type CallGraph struct {
	// Callees[f] lists f's possible callees (sorted, deduplicated);
	// imported functions have no outgoing edges.
	Callees [][]uint32

	// IndirectSites[f] lists, per call_indirect instruction in f (in body
	// order), how many table functions type-match it (the fan-out).
	IndirectSites [][]int

	// TableFuncs is the sorted set of functions any element segment places
	// in a table.
	TableFuncs []uint32

	// Reachable[f] marks functions reachable from the roots: exported
	// functions, the start function, and — when a table is exported or
	// imported (so the host can call through it) — every table function.
	Reachable []bool
}

// BuildCallGraph computes the call graph of the indexed module and its
// reachability from exports/start. Malformed call instructions surface as
// errors.
func BuildCallGraph(ix *wasm.Index) (*CallGraph, error) {
	m := ix.Module()
	n := ix.NumFuncs()
	numImports := ix.NumImportedFuncs()
	cg := &CallGraph{
		Callees:       make([][]uint32, n),
		IndirectSites: make([][]int, n),
		Reachable:     make([]bool, n),
	}

	// Table functions, grouped by their structural type for call_indirect
	// matching (type indices may alias structurally identical types).
	inTable := map[uint32]bool{}
	for _, seg := range m.Elems {
		for _, f := range seg.Funcs {
			if int(f) >= n {
				return nil, fmt.Errorf("static: element segment references function %d (have %d)", f, n)
			}
			inTable[f] = true
		}
	}
	cg.TableFuncs = make([]uint32, 0, len(inTable))
	for f := range inTable {
		cg.TableFuncs = append(cg.TableFuncs, f)
	}
	sort.Slice(cg.TableFuncs, func(a, b int) bool { return cg.TableFuncs[a] < cg.TableFuncs[b] })

	matchingTableFuncs := func(ti uint32) ([]uint32, error) {
		if int(ti) >= len(m.Types) {
			return nil, fmt.Errorf("call_indirect type index %d out of range", ti)
		}
		want := m.Types[ti]
		var out []uint32
		for _, f := range cg.TableFuncs {
			ft, err := ix.FuncType(f)
			if err != nil {
				return nil, err
			}
			if ft.Equal(want) {
				out = append(out, f)
			}
		}
		return out, nil
	}

	for di := range m.Funcs {
		caller := uint32(numImports + di)
		seen := map[uint32]bool{}
		var callees []uint32
		add := func(f uint32) {
			if !seen[f] {
				seen[f] = true
				callees = append(callees, f)
			}
		}
		for pc, in := range m.Funcs[di].Body {
			switch in.Op {
			case wasm.OpCall:
				if int(in.Idx) >= n {
					return nil, fmt.Errorf("static: func %d instr %d: call target %d out of range (have %d)", caller, pc, in.Idx, n)
				}
				add(in.Idx)
			case wasm.OpCallIndirect:
				targets, err := matchingTableFuncs(in.Idx)
				if err != nil {
					return nil, fmt.Errorf("static: func %d instr %d: %w", caller, pc, err)
				}
				cg.IndirectSites[caller] = append(cg.IndirectSites[caller], len(targets))
				for _, t := range targets {
					add(t)
				}
			}
		}
		sort.Slice(callees, func(a, b int) bool { return callees[a] < callees[b] })
		cg.Callees[caller] = callees
	}

	// Roots: exports, start, and table functions when the host can reach the
	// table (an exported or imported table makes every entry host-callable).
	var work []uint32
	mark := func(f uint32) {
		if int(f) < n && !cg.Reachable[f] {
			cg.Reachable[f] = true
			work = append(work, f)
		}
	}
	for _, e := range m.Exports {
		if e.Kind == wasm.ExternFunc {
			if int(e.Idx) >= n {
				return nil, fmt.Errorf("static: export %q references function %d (have %d)", e.Name, e.Idx, n)
			}
			mark(e.Idx)
		}
	}
	if m.Start != nil {
		mark(*m.Start)
	}
	tableVisible := false
	for _, e := range m.Exports {
		if e.Kind == wasm.ExternTable {
			tableVisible = true
		}
	}
	for _, imp := range m.Imports {
		if imp.Kind == wasm.ExternTable {
			tableVisible = true
		}
	}
	if tableVisible {
		for _, f := range cg.TableFuncs {
			mark(f)
		}
	}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		for _, callee := range cg.Callees[f] {
			mark(callee)
		}
	}
	return cg, nil
}

// DeadFuncs returns the function indices (whole index space) not reachable
// from the roots, sorted.
func (cg *CallGraph) DeadFuncs() []uint32 {
	var dead []uint32
	for f, r := range cg.Reachable {
		if !r {
			dead = append(dead, uint32(f))
		}
	}
	return dead
}
