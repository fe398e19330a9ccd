package analyses

import (
	"io"

	"wasabi/internal/analysis"
)

// StreamTracer is the Tracer on the event-stream surface: the record
// decoder (analysis.NewDecoder) feeds a Tracer, so a stream trace is the
// callback trace line for line by construction. The Tracer is held, not
// embedded, so the StreamTracer stays stream-only: it has no callbacks of
// its own.
type StreamTracer struct {
	Lines []string
	// MaxEvents bounds the trace; 0 means unbounded.
	MaxEvents int

	tbl    *analysis.EventTable
	tracer Tracer
	dec    analysis.EventSink
}

// NewStreamTracer returns an unbounded stream tracer.
func NewStreamTracer() *StreamTracer { return &StreamTracer{} }

// StreamCaps declares that the tracer consumes every event class.
func (tr *StreamTracer) StreamCaps() analysis.Cap { return analysis.AllCaps }

// SetEventTable receives the decode table before events flow.
func (tr *StreamTracer) SetEventTable(tbl *analysis.EventTable) {
	tr.tbl, tr.dec = tbl, analysis.NewDecoder(tbl, &tr.tracer)
}

// Events decodes one borrowed batch into the trace, one record group at a
// time: a group is one callback and so one line, and once the trace holds
// MaxEvents lines, later records are not decoded.
func (tr *StreamTracer) Events(batch []analysis.Event) {
	tr.tracer.Events = tr.Lines
	for i := 0; i < len(batch) && (tr.MaxEvents <= 0 || len(tr.tracer.Events) < tr.MaxEvents); {
		next := tr.tbl.Next(batch, i)
		tr.dec.Events(batch[i:next])
		i = next
	}
	tr.Lines = tr.tracer.Events
}

// Report prints the trace.
func (tr *StreamTracer) Report(w io.Writer) { (&Tracer{Events: tr.Lines}).Report(w) }
