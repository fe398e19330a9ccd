package analyses

import (
	"wasabi/internal/analysis"
)

// StreamInstructionMix is the InstructionMix on the event-stream surface:
// the record decoder (analysis.NewDecoder) feeds an InstructionMix, so the
// counts are the callback counts by construction. The InstructionMix is
// held, not embedded, so the StreamInstructionMix stays stream-only: it has
// no callbacks of its own.
type StreamInstructionMix struct {
	mix *InstructionMix
	dec analysis.EventSink
}

// NewStreamInstructionMix returns an empty stream instruction-mix analysis.
func NewStreamInstructionMix() *StreamInstructionMix {
	return &StreamInstructionMix{mix: NewInstructionMix()}
}

// StreamCaps mirrors the callback version's full instrumentation shape.
func (a *StreamInstructionMix) StreamCaps() analysis.Cap { return analysis.AllCaps }

// SetEventTable receives the decode table before events flow.
func (a *StreamInstructionMix) SetEventTable(tbl *analysis.EventTable) {
	a.dec = analysis.NewDecoder(tbl, a.mix)
}

// Events decodes one borrowed batch into the counts.
func (a *StreamInstructionMix) Events(batch []analysis.Event) { a.dec.Events(batch) }

// Counts returns the count of each instruction name observed.
func (a *StreamInstructionMix) Counts() map[string]uint64 { return a.mix.Counts() }

// Total returns the total executed-instruction count observed.
func (a *StreamInstructionMix) Total() uint64 { return a.mix.Total() }
