package analyses

import (
	"fmt"
	"io"
	"strings"

	"wasabi/internal/analysis"
)

// Taint is a dynamic taint analysis with memory shadowing (Table 4 row 6,
// paper §2.3): it associates a taint with every value and tracks propagation
// through the operand stack, locals, globals, calls, and linear memory. A
// value becomes tainted when produced by a configured source function;
// a flow is reported when a tainted value reaches an argument of a sink
// function. The shadow state lives entirely on the host side, in a separate
// heap that never interferes with the program's memory (faithful execution,
// paper §2.3).
type Taint struct {
	// Sources and Sinks are function indices (original index space).
	Sources map[int]bool
	Sinks   map[int]bool

	// Flows records (source-tainted) values reaching sinks.
	Flows []Flow

	frames  []*taintFrame
	globals map[uint32]bool
	mem     map[uint64]bool // shadow memory, one taint bit per byte
}

// Flow is one detected source→sink flow.
type Flow struct {
	Sink   int
	ArgIdx int
	Loc    analysis.Location
}

type taintFrame struct {
	stack  []bool
	locals map[uint32]bool
	retTnt bool // taint of the returned value(s)
	target int  // the called function
}

// NewTaint returns a taint analysis with no sources or sinks configured.
func NewTaint() *Taint {
	t := &Taint{
		Sources: make(map[int]bool),
		Sinks:   make(map[int]bool),
		globals: make(map[uint32]bool),
		mem:     make(map[uint64]bool),
	}
	t.frames = []*taintFrame{newTaintFrame()}
	return t
}

func newTaintFrame() *taintFrame {
	return &taintFrame{locals: make(map[uint32]bool)}
}

func (t *Taint) top() *taintFrame { return t.frames[len(t.frames)-1] }

func (f *taintFrame) push(v bool) { f.stack = append(f.stack, v) }

func (f *taintFrame) pop() bool {
	if len(f.stack) == 0 {
		return false // conservative: desynced shadow stack reads as clean
	}
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}

// Stack-shape hooks: mirror the operand stack.

func (t *Taint) Const(analysis.Location, analysis.Value) { t.top().push(false) }

func (t *Taint) Drop(analysis.Location, analysis.Value) { t.top().pop() }

func (t *Taint) Select(_ analysis.Location, cond bool, _, _ analysis.Value) {
	f := t.top()
	f.pop() // condition
	second := f.pop()
	first := f.pop()
	if cond {
		f.push(first)
	} else {
		f.push(second)
	}
}

func (t *Taint) Unary(analysis.Location, string, analysis.Value, analysis.Value) {
	f := t.top()
	f.push(f.pop())
}

func (t *Taint) Binary(analysis.Location, string, analysis.Value, analysis.Value, analysis.Value) {
	f := t.top()
	b, a := f.pop(), f.pop()
	f.push(a || b)
}

// Locals and globals.

func (t *Taint) Local(_ analysis.Location, op string, idx uint32, _ analysis.Value) {
	f := t.top()
	switch op {
	case "local.get":
		f.push(f.locals[idx])
	case "local.set":
		f.locals[idx] = f.pop()
	case "local.tee":
		if len(f.stack) > 0 {
			f.locals[idx] = f.stack[len(f.stack)-1]
		}
	}
}

func (t *Taint) Global(_ analysis.Location, op string, idx uint32, _ analysis.Value) {
	f := t.top()
	if op == "global.get" {
		f.push(t.globals[idx])
	} else {
		t.globals[idx] = f.pop()
	}
}

// Memory shadowing: taints propagate through loads and stores byte-wise.

func (t *Taint) Load(_ analysis.Location, op string, m analysis.MemArg, _ analysis.Value) {
	f := t.top()
	f.pop() // address
	tainted := false
	for i := uint64(0); i < accessBytes(op); i++ {
		tainted = tainted || t.mem[m.EffAddr()+i]
	}
	f.push(tainted)
}

func (t *Taint) Store(_ analysis.Location, op string, m analysis.MemArg, _ analysis.Value) {
	f := t.top()
	v := f.pop()
	f.pop() // address
	for i := uint64(0); i < accessBytes(op); i++ {
		if v {
			t.mem[m.EffAddr()+i] = true
		} else {
			delete(t.mem, m.EffAddr()+i)
		}
	}
}

func (t *Taint) MemorySize(analysis.Location, uint32) { t.top().push(false) }

func (t *Taint) MemoryGrow(analysis.Location, uint32, uint32) {
	f := t.top()
	f.pop()
	f.push(false)
}

func (t *Taint) If(analysis.Location, bool) { t.top().pop() }

func (t *Taint) BrIf(analysis.Location, analysis.BranchTarget, bool) { t.top().pop() }

func (t *Taint) BrTable(analysis.Location, []analysis.BranchTarget, analysis.BranchTarget, uint32) {
	t.top().pop()
}

// Calls: argument taints transfer into the callee frame; result taints
// transfer back at call_post. Sink checking happens at call_pre.

func (t *Taint) CallPre(loc analysis.Location, target int, args []analysis.Value, tableIdx int64) {
	f := t.top()
	taints := make([]bool, len(args))
	for i := len(args) - 1; i >= 0; i-- {
		taints[i] = f.pop()
	}
	if tableIdx >= 0 {
		f.pop() // the table index operand
	}
	if t.Sinks[target] {
		for i, tainted := range taints {
			if tainted {
				t.Flows = append(t.Flows, Flow{Sink: target, ArgIdx: i, Loc: loc})
			}
		}
	}
	callee := newTaintFrame()
	for i, tnt := range taints {
		callee.locals[uint32(i)] = tnt
	}
	callee.target = target
	t.frames = append(t.frames, callee)
}

func (t *Taint) Return(_ analysis.Location, results []analysis.Value) {
	f := t.top()
	ret := false
	for range results {
		ret = ret || f.pop()
	}
	f.retTnt = f.retTnt || ret
}

func (t *Taint) CallPost(_ analysis.Location, results []analysis.Value) {
	callee := t.top()
	if len(t.frames) > 1 {
		t.frames = t.frames[:len(t.frames)-1]
	}
	f := t.top()
	tainted := callee.retTnt || t.Sources[callee.target]
	for range results {
		f.push(tainted)
	}
}

// TaintedBytes returns the current number of tainted shadow-memory bytes.
func (t *Taint) TaintedBytes() int { return len(t.mem) }

// Report writes all detected flows.
func (t *Taint) Report(w io.Writer) {
	for _, fl := range t.Flows {
		fmt.Fprintf(w, "flow: tainted arg %d reaches sink func %d (call at %s)\n", fl.ArgIdx, fl.Sink, fl.Loc)
	}
	fmt.Fprintf(w, "%d flows, %d tainted bytes\n", len(t.Flows), t.TaintedBytes())
}

// accessBytes derives the access width in bytes from the instruction name
// (e.g. i32.load8_s → 1, i64.load32_u → 4, f64.store → 8).
func accessBytes(op string) uint64 {
	switch {
	case strings.Contains(op, "8"):
		return 1
	case strings.Contains(op, "16"):
		return 2
	case strings.Contains(op[3:], "32"): // i64.load32_s / i64.store32
		return 4
	case strings.HasPrefix(op, "i32") || strings.HasPrefix(op, "f32"):
		return 4
	default:
		return 8
	}
}
