package analyses

import (
	"fmt"
	"io"

	"wasabi/internal/analysis"
)

// InstructionCoverage records which instructions executed at least once,
// useful to assess test quality (Table 4 row 3). It uses all hooks so that
// every executed instruction is observed.
type InstructionCoverage struct {
	full
	Covered map[analysis.Location]bool
	info    *analysis.ModuleInfo
}

// NewInstructionCoverage returns an empty coverage analysis.
func NewInstructionCoverage() *InstructionCoverage {
	return &InstructionCoverage{Covered: make(map[analysis.Location]bool)}
}

// SetModuleInfo lets the analysis report per-function totals.
func (a *InstructionCoverage) SetModuleInfo(info *analysis.ModuleInfo) { a.info = info }

func (a *InstructionCoverage) mark(loc analysis.Location) {
	if loc.Instr >= 0 {
		a.Covered[loc] = true
	}
}

func (a *InstructionCoverage) Nop(loc analysis.Location)                         { a.mark(loc) }
func (a *InstructionCoverage) Unreachable(loc analysis.Location)                 { a.mark(loc) }
func (a *InstructionCoverage) If(loc analysis.Location, _ bool)                  { a.mark(loc) }
func (a *InstructionCoverage) Br(loc analysis.Location, _ analysis.BranchTarget) { a.mark(loc) }
func (a *InstructionCoverage) BrIf(loc analysis.Location, _ analysis.BranchTarget, _ bool) {
	a.mark(loc)
}
func (a *InstructionCoverage) BrTable(loc analysis.Location, _ []analysis.BranchTarget, _ analysis.BranchTarget, _ uint32) {
	a.mark(loc)
}
func (a *InstructionCoverage) Begin(loc analysis.Location, _ analysis.BlockKind) { a.mark(loc) }
func (a *InstructionCoverage) End(loc analysis.Location, _ analysis.BlockKind, _ analysis.Location) {
	a.mark(loc)
}
func (a *InstructionCoverage) Const(loc analysis.Location, _ analysis.Value) { a.mark(loc) }
func (a *InstructionCoverage) Drop(loc analysis.Location, _ analysis.Value)  { a.mark(loc) }
func (a *InstructionCoverage) Select(loc analysis.Location, _ bool, _, _ analysis.Value) {
	a.mark(loc)
}
func (a *InstructionCoverage) Unary(loc analysis.Location, _ string, _, _ analysis.Value) {
	a.mark(loc)
}
func (a *InstructionCoverage) Binary(loc analysis.Location, _ string, _, _, _ analysis.Value) {
	a.mark(loc)
}
func (a *InstructionCoverage) Local(loc analysis.Location, _ string, _ uint32, _ analysis.Value) {
	a.mark(loc)
}
func (a *InstructionCoverage) Global(loc analysis.Location, _ string, _ uint32, _ analysis.Value) {
	a.mark(loc)
}
func (a *InstructionCoverage) Load(loc analysis.Location, _ string, _ analysis.MemArg, _ analysis.Value) {
	a.mark(loc)
}
func (a *InstructionCoverage) Store(loc analysis.Location, _ string, _ analysis.MemArg, _ analysis.Value) {
	a.mark(loc)
}
func (a *InstructionCoverage) MemorySize(loc analysis.Location, _ uint32)    { a.mark(loc) }
func (a *InstructionCoverage) MemoryGrow(loc analysis.Location, _, _ uint32) { a.mark(loc) }
func (a *InstructionCoverage) CallPre(loc analysis.Location, _ int, _ []analysis.Value, _ int64) {
	a.mark(loc)
}
func (a *InstructionCoverage) Return(loc analysis.Location, _ []analysis.Value) { a.mark(loc) }

// BlockCovered marks the whole basic block [loc.Instr, end] covered from one
// probe event. Implementing it declares the analysis coverage-class
// (analysis.CapBlockCoverage): a static-analysis-enabled engine instruments
// one probe per CFG block instead of hooks at every instruction, which
// reaches the same covered set over non-structural instructions (`end` and
// `else` are block delimiters; per-instruction mode observes some of them
// via frame-exit events that block mode deliberately does not reconstruct).
func (a *InstructionCoverage) BlockCovered(loc analysis.Location, end int) {
	for i := loc.Instr; i <= end; i++ {
		a.mark(analysis.Location{Func: loc.Func, Instr: i})
	}
}

// Report writes per-function coverage counts.
func (a *InstructionCoverage) Report(w io.Writer) {
	perFunc := make(map[int]int)
	for loc := range a.Covered {
		perFunc[loc.Func]++
	}
	for fn := 0; a.info != nil && fn < len(a.info.FuncNames); fn++ {
		if n := perFunc[fn]; n > 0 {
			fmt.Fprintf(w, "%6d instr locations covered in %s\n", n, a.info.FuncName(fn))
		}
	}
}
