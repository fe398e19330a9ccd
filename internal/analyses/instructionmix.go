package analyses

import (
	"fmt"
	"io"
	"sort"

	"wasabi/internal/analysis"
	"wasabi/internal/wasm"
)

// InstructionMix counts how often each kind of instruction executes, a basis
// for performance and security analyses (Table 4 row 1).
type InstructionMix struct {
	full
	Counts map[string]uint64
}

// NewInstructionMix returns an empty instruction-mix analysis.
func NewInstructionMix() *InstructionMix {
	return &InstructionMix{Counts: make(map[string]uint64)}
}

func (a *InstructionMix) bump(key string) { a.Counts[key]++ }

// constKeys maps every value type byte to its count key ("i32.const", ...),
// so counting a const event allocates nothing.
var constKeys = func() (keys [256]string) {
	for t := range keys {
		keys[t] = wasm.ValType(t).String() + ".const"
	}
	return keys
}()

func (a *InstructionMix) Nop(analysis.Location)                               { a.bump("nop") }
func (a *InstructionMix) Unreachable(analysis.Location)                       { a.bump("unreachable") }
func (a *InstructionMix) If(analysis.Location, bool)                          { a.bump("if") }
func (a *InstructionMix) Br(analysis.Location, analysis.BranchTarget)         { a.bump("br") }
func (a *InstructionMix) BrIf(analysis.Location, analysis.BranchTarget, bool) { a.bump("br_if") }
func (a *InstructionMix) BrTable(analysis.Location, []analysis.BranchTarget, analysis.BranchTarget, uint32) {
	a.bump("br_table")
}
func (a *InstructionMix) Const(_ analysis.Location, v analysis.Value) {
	a.bump(constKeys[v.Type])
}
func (a *InstructionMix) Drop(analysis.Location, analysis.Value) { a.bump("drop") }
func (a *InstructionMix) Select(analysis.Location, bool, analysis.Value, analysis.Value) {
	a.bump("select")
}
func (a *InstructionMix) Unary(_ analysis.Location, op string, _, _ analysis.Value) { a.bump(op) }
func (a *InstructionMix) Binary(_ analysis.Location, op string, _, _, _ analysis.Value) {
	a.bump(op)
}
func (a *InstructionMix) Local(_ analysis.Location, op string, _ uint32, _ analysis.Value) {
	a.bump(op)
}
func (a *InstructionMix) Global(_ analysis.Location, op string, _ uint32, _ analysis.Value) {
	a.bump(op)
}
func (a *InstructionMix) Load(_ analysis.Location, op string, _ analysis.MemArg, _ analysis.Value) {
	a.bump(op)
}
func (a *InstructionMix) Store(_ analysis.Location, op string, _ analysis.MemArg, _ analysis.Value) {
	a.bump(op)
}
func (a *InstructionMix) MemorySize(analysis.Location, uint32)         { a.bump("memory.size") }
func (a *InstructionMix) MemoryGrow(analysis.Location, uint32, uint32) { a.bump("memory.grow") }
func (a *InstructionMix) CallPre(_ analysis.Location, _ int, _ []analysis.Value, tableIdx int64) {
	if tableIdx >= 0 {
		a.bump("call_indirect")
	} else {
		a.bump("call")
	}
}
func (a *InstructionMix) Return(analysis.Location, []analysis.Value) { a.bump("return") }

// Total returns the total executed-instruction count observed.
func (a *InstructionMix) Total() uint64 {
	var t uint64
	for _, c := range a.Counts {
		t += c
	}
	return t
}

// Report writes the mix sorted by descending count.
func (a *InstructionMix) Report(w io.Writer) {
	type kv struct {
		op string
		n  uint64
	}
	rows := make([]kv, 0, len(a.Counts))
	for op, n := range a.Counts {
		rows = append(rows, kv{op, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].op < rows[j].op
	})
	for _, r := range rows {
		fmt.Fprintf(w, "%12d  %s\n", r.n, r.op)
	}
}
