package analyses

import (
	"fmt"
	"io"
	"sort"

	"wasabi/internal/analysis"
)

// CallGraph builds a dynamic call graph, including indirect calls resolved
// to their actual targets and calls between internal functions (Table 4
// row 5). Useful for dead-code detection and reverse engineering.
type CallGraph struct {
	// Edges counts caller→callee transitions; Indirect marks edges observed
	// through call_indirect.
	Edges    map[[2]int]uint64
	Indirect map[[2]int]bool
	info     *analysis.ModuleInfo
}

// NewCallGraph returns an empty call-graph analysis.
func NewCallGraph() *CallGraph {
	return &CallGraph{
		Edges:    make(map[[2]int]uint64),
		Indirect: make(map[[2]int]bool),
	}
}

// SetModuleInfo is used to print function names in reports.
func (a *CallGraph) SetModuleInfo(info *analysis.ModuleInfo) { a.info = info }

// CallPre records one edge; the caller is the hook location's function.
func (a *CallGraph) CallPre(loc analysis.Location, target int, _ []analysis.Value, tableIdx int64) {
	edge := [2]int{loc.Func, target}
	a.Edges[edge]++
	if tableIdx >= 0 {
		a.Indirect[edge] = true
	}
}

// Callees returns the distinct callees observed for a function.
func (a *CallGraph) Callees(caller int) []int {
	var out []int
	for e := range a.Edges {
		if e[0] == caller {
			out = append(out, e[1])
		}
	}
	sort.Ints(out)
	return out
}

// Reachable returns all functions reachable from the given roots in the
// recorded graph (dynamically dead code = everything else).
func (a *CallGraph) Reachable(roots ...int) map[int]bool {
	seen := make(map[int]bool)
	work := append([]int(nil), roots...)
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[f] {
			continue
		}
		seen[f] = true
		work = append(work, a.Callees(f)...)
	}
	return seen
}

func (a *CallGraph) name(f int) string {
	if a.info != nil {
		return a.info.FuncName(f)
	}
	return fmt.Sprintf("func%d", f)
}

// Report writes the edges sorted by call count, then caller, then callee.
func (a *CallGraph) Report(w io.Writer) {
	type row struct {
		e [2]int
		n uint64
	}
	rows := make([]row, 0, len(a.Edges))
	for e, n := range a.Edges {
		rows = append(rows, row{e, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		if rows[i].e[0] != rows[j].e[0] {
			return rows[i].e[0] < rows[j].e[0]
		}
		return rows[i].e[1] < rows[j].e[1]
	})
	for _, r := range rows {
		kind := ""
		if a.Indirect[r.e] {
			kind = " (indirect)"
		}
		fmt.Fprintf(w, "%10d  %s -> %s%s\n", r.n, a.name(r.e[0]), a.name(r.e[1]), kind)
	}
}
