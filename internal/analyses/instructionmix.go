package analyses

import (
	"fmt"
	"io"
	"sort"
	"unsafe"

	"wasabi/internal/analysis"
	"wasabi/internal/wasm"
)

// InstructionMix counts how often each kind of instruction executes, a basis
// for performance and security analyses (Table 4 row 1).
//
// It runs once per executed instruction, so it never hashes a key's bytes.
// Every key is a string constant or the one interned name a hook's op
// carries (wasm.Opcode.String, EventSpec.OpName), live or replayed: a table
// read from a segment file maps its op names back to opcodes. So a small
// open-addressing table finds a key's count by the string's address and
// length. Equal names at other addresses, such as copies a caller passes,
// get slots of their own; Counts, Total and Report fold them.
type InstructionMix struct {
	full
	slots []mixSlot // length a power of two, at most half used
	used  int
	shift uint // 64 - log2(len(slots))
}

// mixSlot counts the events of one key string. It holds the string, which
// keeps the address it is found by live. n == 0 marks an empty slot.
type mixSlot struct {
	key string
	n   uint64
}

// NewInstructionMix returns an empty instruction-mix analysis.
func NewInstructionMix() *InstructionMix {
	const bits = 7 // room for 64 names before the table grows
	return &InstructionMix{slots: make([]mixSlot, 1<<bits), shift: 64 - bits}
}

// home is the slot a probe for a key at address p starts at (Fibonacci
// hashing of the address).
func (a *InstructionMix) home(p *byte) int {
	return int(uint64(uintptr(unsafe.Pointer(p))) * 0x9e3779b97f4a7c15 >> a.shift)
}

// bump counts one event of key.
func (a *InstructionMix) bump(key string) {
	p := unsafe.StringData(key)
	mask := len(a.slots) - 1
	for i := a.home(p); ; i = (i + 1) & mask {
		s := &a.slots[i]
		switch {
		case s.n == 0:
			a.insert(i, key)
			return
		case unsafe.StringData(s.key) == p && len(s.key) == len(key):
			s.n++
			return
		}
	}
}

// insert counts the first event of key in the empty slot i, growing the
// table first when it would be more than half used.
func (a *InstructionMix) insert(i int, key string) {
	if 2*(a.used+1) > len(a.slots) {
		a.grow()
		a.bump(key)
		return
	}
	a.slots[i] = mixSlot{key: key, n: 1}
	a.used++
}

// grow doubles the table and moves every used slot into it.
func (a *InstructionMix) grow() {
	old := a.slots
	a.slots, a.shift = make([]mixSlot, 2*len(old)), a.shift-1
	mask := len(a.slots) - 1
	for _, s := range old {
		if s.n == 0 {
			continue
		}
		i := a.home(unsafe.StringData(s.key))
		for a.slots[i].n != 0 {
			i = (i + 1) & mask
		}
		a.slots[i] = s
	}
}

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

// Counts returns the count of each instruction name observed.
func (a *InstructionMix) Counts() map[string]uint64 {
	counts := make(map[string]uint64, a.used)
	for _, s := range a.slots {
		if s.n != 0 {
			counts[s.key] += s.n
		}
	}
	return counts
}

// Total returns the total executed-instruction count observed.
func (a *InstructionMix) Total() uint64 {
	var t uint64
	for _, s := range a.slots {
		t += s.n
	}
	return t
}

// Report writes the mix sorted by descending count.
func (a *InstructionMix) Report(w io.Writer) {
	type kv struct {
		op string
		n  uint64
	}
	counts := a.Counts()
	rows := make([]kv, 0, len(counts))
	for op, n := range counts {
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
