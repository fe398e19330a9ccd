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

	shadow[bool]
	mem map[uint64]bool // shadow memory, one taint bit per byte
}

// Flow is one detected source→sink flow.
type Flow struct {
	Sink   int
	ArgIdx int
	Loc    analysis.Location
}

// NewTaint returns a taint analysis with no sources or sinks configured.
func NewTaint() *Taint {
	return &Taint{
		Sources: make(map[int]bool),
		Sinks:   make(map[int]bool),
		shadow:  newShadow(false), // a desynced shadow stack reads as clean
		mem:     make(map[uint64]bool),
	}
}

// Value rules: a constant is clean, and an operation's result is tainted
// when an operand is.

func (t *Taint) Const(analysis.Location, analysis.Value) { t.push(false) }

func (t *Taint) Unary(analysis.Location, string, analysis.Value, analysis.Value) {
	t.push(t.pop())
}

func (t *Taint) Binary(analysis.Location, string, analysis.Value, analysis.Value, analysis.Value) {
	b, a := t.pop(), t.pop()
	t.push(a || b)
}

// Memory shadowing: taints propagate through loads and stores byte-wise.

func (t *Taint) Load(_ analysis.Location, op string, m analysis.MemArg, _ analysis.Value) {
	t.pop() // address
	tainted := false
	for i := uint64(0); i < accessBytes(op); i++ {
		tainted = tainted || t.mem[m.EffAddr()+i]
	}
	t.push(tainted)
}

func (t *Taint) Store(_ analysis.Location, op string, m analysis.MemArg, _ analysis.Value) {
	v := t.pop()
	t.pop() // address
	for i := uint64(0); i < accessBytes(op); i++ {
		if v {
			t.mem[m.EffAddr()+i] = true
		} else {
			delete(t.mem, m.EffAddr()+i)
		}
	}
}

func (t *Taint) MemorySize(analysis.Location, uint32) { t.push(false) }

func (t *Taint) MemoryGrow(analysis.Location, uint32, uint32) {
	t.pop()
	t.push(false)
}

// Calls: argument taints transfer into the callee frame; result taints
// transfer back at call_post. Sink checking happens at call_pre.

func (t *Taint) CallPre(loc analysis.Location, target int, args []analysis.Value, tableIdx int64) {
	callee := t.enter(target, len(args), tableIdx)
	if t.Sinks[target] {
		for i := range args {
			if callee.locals[uint32(i)] {
				t.Flows = append(t.Flows, Flow{Sink: target, ArgIdx: i, Loc: loc})
			}
		}
	}
}

func (t *Taint) Return(_ analysis.Location, results []analysis.Value) {
	ret := false
	for range results {
		ret = ret || t.pop()
	}
	f := t.top()
	f.ret = f.ret || ret
}

func (t *Taint) CallPost(_ analysis.Location, results []analysis.Value) {
	callee := t.leave()
	tainted := callee.ret || t.Sources[callee.target]
	for range results {
		t.push(tainted)
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
