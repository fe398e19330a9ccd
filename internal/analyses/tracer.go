package analyses

import (
	"fmt"
	"io"

	"wasabi/internal/analysis"
)

// Tracer records every hook event as one formatted line, in order. It serves
// two purposes: as a debugging analysis (`wasabi-run -analysis trace` prints
// an execution trace), and as the executable specification of Wasabi's hook
// ordering — the golden tests in tracer_test.go pin down exactly when each
// hook fires relative to the others (e.g. call_pre before the callee's
// begin(function), end hooks of traversed blocks before a taken branch).
type Tracer struct {
	Events []string
}

// NewTracer returns a tracer.
func NewTracer() *Tracer { return &Tracer{} }

func (tr *Tracer) emit(format string, args ...any) {
	tr.Events = append(tr.Events, fmt.Sprintf(format, args...))
}

func (tr *Tracer) Nop(l analysis.Location)         { tr.emit("%v nop", l) }
func (tr *Tracer) Unreachable(l analysis.Location) { tr.emit("%v unreachable", l) }
func (tr *Tracer) If(l analysis.Location, c bool)  { tr.emit("%v if %v", l, c) }
func (tr *Tracer) Br(l analysis.Location, t analysis.BranchTarget) {
	tr.emit("%v br ->%v", l, t.Location)
}
func (tr *Tracer) BrIf(l analysis.Location, t analysis.BranchTarget, c bool) {
	tr.emit("%v br_if %v ->%v", l, c, t.Location)
}
func (tr *Tracer) BrTable(l analysis.Location, tbl []analysis.BranchTarget, d analysis.BranchTarget, idx uint32) {
	tr.emit("%v br_table [%d]", l, idx)
}
func (tr *Tracer) Begin(l analysis.Location, k analysis.BlockKind) { tr.emit("%v begin %s", l, k) }
func (tr *Tracer) End(l analysis.Location, k analysis.BlockKind, b analysis.Location) {
	tr.emit("%v end %s (begin %v)", l, k, b)
}
func (tr *Tracer) Const(l analysis.Location, v analysis.Value) { tr.emit("%v const %v", l, v) }
func (tr *Tracer) Drop(l analysis.Location, v analysis.Value)  { tr.emit("%v drop %v", l, v) }
func (tr *Tracer) Select(l analysis.Location, c bool, a, b analysis.Value) {
	tr.emit("%v select %v %v %v", l, c, a, b)
}
func (tr *Tracer) Unary(l analysis.Location, op string, in, out analysis.Value) {
	tr.emit("%v %s %v -> %v", l, op, in, out)
}
func (tr *Tracer) Binary(l analysis.Location, op string, a, b, r analysis.Value) {
	tr.emit("%v %s %v %v -> %v", l, op, a, b, r)
}
func (tr *Tracer) Local(l analysis.Location, op string, i uint32, v analysis.Value) {
	tr.emit("%v %s %d %v", l, op, i, v)
}
func (tr *Tracer) Global(l analysis.Location, op string, i uint32, v analysis.Value) {
	tr.emit("%v %s %d %v", l, op, i, v)
}
func (tr *Tracer) Load(l analysis.Location, op string, m analysis.MemArg, v analysis.Value) {
	tr.emit("%v %s @%d -> %v", l, op, m.EffAddr(), v)
}
func (tr *Tracer) Store(l analysis.Location, op string, m analysis.MemArg, v analysis.Value) {
	tr.emit("%v %s @%d <- %v", l, op, m.EffAddr(), v)
}
func (tr *Tracer) MemorySize(l analysis.Location, p uint32) { tr.emit("%v memory.size %d", l, p) }
func (tr *Tracer) MemoryGrow(l analysis.Location, d, p uint32) {
	tr.emit("%v memory.grow %d %d", l, d, p)
}
func (tr *Tracer) CallPre(l analysis.Location, target int, args []analysis.Value, ti int64) {
	tr.emit("%v call_pre f%d args=%v tbl=%d", l, target, args, ti)
}
func (tr *Tracer) CallPost(l analysis.Location, results []analysis.Value) {
	tr.emit("%v call_post %v", l, results)
}
func (tr *Tracer) Return(l analysis.Location, results []analysis.Value) {
	tr.emit("%v return %v", l, results)
}
func (tr *Tracer) Start(l analysis.Location) { tr.emit("%v start", l) }

// Report prints the trace.
func (tr *Tracer) Report(w io.Writer) {
	for _, e := range tr.Events {
		fmt.Fprintln(w, e)
	}
}

func init() {
	Registry["trace"] = func() any { return NewTracer() }
}
