package analyses

import (
	"wasabi/internal/analysis"
)

// StreamInstructionMix is the instruction-mix analysis ported to the
// event-stream surface: identical counts to InstructionMix, computed from
// packed records instead of callbacks. Kinds the callback version observes
// but does not count (begin/end/call_post/start) are ignored here the same
// way.
type StreamInstructionMix struct {
	Counts map[string]uint64
	tbl    *analysis.EventTable
}

// NewStreamInstructionMix returns an empty stream instruction-mix analysis.
func NewStreamInstructionMix() *StreamInstructionMix {
	return &StreamInstructionMix{Counts: make(map[string]uint64)}
}

// StreamCaps mirrors the callback version's full instrumentation shape.
func (a *StreamInstructionMix) StreamCaps() analysis.Cap { return analysis.AllCaps }

// SetEventTable receives the decode table before events flow.
func (a *StreamInstructionMix) SetEventTable(tbl *analysis.EventTable) { a.tbl = tbl }

// Events consumes one borrowed batch.
func (a *StreamInstructionMix) Events(batch []analysis.Event) {
	for i := range batch {
		e := &batch[i]
		if e.Hook == analysis.EventCont {
			continue
		}
		switch e.Kind {
		case analysis.KindNop:
			a.Counts["nop"]++
		case analysis.KindUnreachable:
			a.Counts["unreachable"]++
		case analysis.KindIf:
			a.Counts["if"]++
		case analysis.KindBr:
			a.Counts["br"]++
		case analysis.KindBrIf:
			a.Counts["br_if"]++
		case analysis.KindBrTable:
			a.Counts["br_table"]++
		case analysis.KindConst:
			a.Counts[constKeys[a.tbl.Spec(e).Types[0]]]++
		case analysis.KindDrop:
			a.Counts["drop"]++
		case analysis.KindSelect:
			a.Counts["select"]++
		case analysis.KindUnary, analysis.KindBinary,
			analysis.KindLocal, analysis.KindGlobal,
			analysis.KindLoad, analysis.KindStore:
			a.Counts[a.tbl.Spec(e).Op]++
		case analysis.KindMemorySize:
			a.Counts["memory.size"]++
		case analysis.KindMemoryGrow:
			a.Counts["memory.grow"]++
		case analysis.KindCall:
			spec := a.tbl.Spec(e)
			switch {
			case spec.Post: // not counted, like the callback version
			case spec.Indirect:
				a.Counts["call_indirect"]++
			default:
				a.Counts["call"]++
			}
		case analysis.KindReturn:
			a.Counts["return"]++
		}
	}
}

// Total returns the total executed-instruction count observed.
func (a *StreamInstructionMix) Total() uint64 {
	var t uint64
	for _, c := range a.Counts {
		t += c
	}
	return t
}
