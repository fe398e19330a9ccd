package analyses

import (
	"fmt"
	"io"
	"sort"

	"wasabi/internal/analysis"
)

// Origin tracks the provenance of values: for every value it records the
// instruction that produced it, propagating origins through locals, globals,
// and linear memory. When a "suspect" value (by default: a zero used as a
// divisor candidate or loaded from memory) is observed, the analysis can
// answer where it came from — the dynamic analysis the paper cites as
// "tracking the origin of null and undefined values" (Bond et al.,
// OOPSLA 2007). It is an extension beyond the paper's eight analyses and
// demonstrates shadow-state tracking at value granularity.
type Origin struct {
	// Shadow state: origin (producing location) per local/global/stack slot
	// and per memory word.
	shadow[analysis.Location]
	mem map[uint64]analysis.Location

	// ZeroLoads records, for every load that produced a zero, the location
	// that last stored to the address (the "origin" of the zero), keyed by
	// the load location.
	ZeroLoads map[analysis.Location]analysis.Location
}

var unknownLoc = analysis.Location{Func: -1, Instr: -1}

// NewOrigin returns an empty origin-tracking analysis.
func NewOrigin() *Origin {
	return &Origin{
		shadow:    newShadow(unknownLoc),
		mem:       make(map[uint64]analysis.Location),
		ZeroLoads: make(map[analysis.Location]analysis.Location),
	}
}

// Constants and the results of operations originate at the instruction
// itself.

func (o *Origin) Const(loc analysis.Location, _ analysis.Value) { o.push(loc) }

func (o *Origin) Unary(loc analysis.Location, _ string, _, _ analysis.Value) {
	o.pop()
	o.push(loc)
}

func (o *Origin) Binary(loc analysis.Location, _ string, _, _, _ analysis.Value) {
	o.pop()
	o.pop()
	o.push(loc)
}

func (o *Origin) Load(loc analysis.Location, _ string, m analysis.MemArg, v analysis.Value) {
	o.pop() // address
	origin, ok := o.mem[m.EffAddr()]
	if !ok {
		origin = unknownLoc
	}
	if v.Bits == 0 {
		o.ZeroLoads[loc] = origin
	}
	o.push(origin)
}

func (o *Origin) Store(_ analysis.Location, _ string, m analysis.MemArg, _ analysis.Value) {
	origin := o.pop() // value origin
	o.pop()           // address
	o.mem[m.EffAddr()] = origin
}

func (o *Origin) MemorySize(loc analysis.Location, _ uint32) { o.push(loc) }

func (o *Origin) MemoryGrow(loc analysis.Location, _, _ uint32) {
	o.pop()
	o.push(loc)
}

func (o *Origin) CallPre(_ analysis.Location, target int, args []analysis.Value, tableIdx int64) {
	o.enter(target, len(args), tableIdx)
}

func (o *Origin) Return(_ analysis.Location, results []analysis.Value) {
	f := o.top()
	for range results {
		f.ret = o.pop()
	}
}

func (o *Origin) CallPost(loc analysis.Location, results []analysis.Value) {
	origin := o.leave().ret
	if origin == unknownLoc {
		// Host functions (no return hook): the call site is the origin.
		origin = loc
	}
	for range results {
		o.push(origin)
	}
}

// Report lists zero-valued loads and where their value was produced.
func (o *Origin) Report(w io.Writer) {
	keys := make([]analysis.Location, 0, len(o.ZeroLoads))
	for k := range o.ZeroLoads {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	for _, k := range keys {
		origin := o.ZeroLoads[k]
		if origin == unknownLoc {
			fmt.Fprintf(w, "zero loaded at %v from untracked memory (never stored)\n", k)
		} else {
			fmt.Fprintf(w, "zero loaded at %v originates from %v\n", k, origin)
		}
	}
	fmt.Fprintf(w, "%d zero-valued loads observed\n", len(o.ZeroLoads))
}

func init() {
	Registry["origin"] = func() any { return NewOrigin() }
}
