package wasabi

// The event-stream analysis surface: hook events as packed records pulled in
// batches, beside (not on top of) the callback API. A stream session's hooks
// compile to per-spec record encoders — the same hook plans as the callback
// trampolines, but writing 40-byte analysis.Event records into the session's
// emitter instead of calling analysis Go code. The consumer pulls whole
// batches:
//
//	sess, _ := compiled.NewSession(myStreamAnalysis) // EventStreamer
//	stream, _ := sess.Stream()
//	go stream.Serve(myStreamAnalysis)                // EventSink, own goroutine
//	inst, _ := sess.Instantiate("app", imports)
//	inst.Invoke("main")                              // events flow in batches
//	stream.Close()                                   // flush + end of stream
//
// A Stream is a one-subscription Fabric (fabric.go): the same emitter
// publishes to the same kind of Subscription, whose queue holds two batches.
//
// Ownership follows the Values rule of the callback API: a batch is
// borrowed and valid only until the next batch is requested — the buffers
// cycle. Copy records (they are plain values) to retain them.
//
// Delivery is lossless: when the consumer lags, the instrumented program
// stalls until it catches up, so the consumer must run concurrently. A
// run-first-drain-later loop on one goroutine works only while the run's
// batches fit the queue.

import (
	"fmt"

	"wasabi/internal/analysis"
	wruntime "wasabi/internal/runtime"
)

// DefaultStreamBatchSize is the default number of event records per batch.
const DefaultStreamBatchSize = 4096

// Re-exported stream types, so analyses and embedders only import this
// package (the callback types are re-exported in wasabi.go).
type (
	// Event is one packed fixed-width hook-event record.
	Event = analysis.Event
	// EventSpec describes one generated low-level hook, as the instrumenter
	// made it and as records are decoded by it.
	EventSpec = analysis.EventSpec
	// EventTable maps Event.Hook indices to their EventSpecs.
	EventTable = analysis.EventTable
	// EventSink consumes borrowed batches of event records.
	EventSink = analysis.EventSink
	// EventStreamer declares the event classes a stream-native analysis
	// consumes (its capability mask).
	EventStreamer = analysis.EventStreamer
	// EventTableReceiver receives the decode table before events flow.
	EventTableReceiver = analysis.EventTableReceiver
)

// EventCont marks continuation records of multi-record events.
const EventCont = analysis.EventCont

// NewDecoder returns an EventSink that decodes each batch of tbl's records
// into calls on a's callbacks, so any callback analysis can consume a
// Stream, a Fanout subscription or a replayed segment:
//
//	go sub.Serve(wasabi.NewDecoder(fab.Table(), analyses.NewInstructionMix()))
//
// Values and br_table targets handed to the callbacks are borrowed, as on
// the callback path. With a table read from a segment file BrTable receives
// a nil table and a zero default, and SetModuleInfo is not called (segments
// carry neither).
func NewDecoder(tbl *EventTable, a any) EventSink { return analysis.NewDecoder(tbl, a) }

// StreamOption configures one stream, overriding its default
// (DefaultStreamBatchSize).
type StreamOption func(*streamConfig)

type streamConfig struct {
	batchSize int
}

// StreamBatchSize overrides the records-per-batch bound of this stream.
func StreamBatchSize(n int) StreamOption {
	return func(c *streamConfig) { c.batchSize = n }
}

// streamQueue is a Stream's queue depth in batches. With the batch being
// filled and the one its consumer holds, it uses exactly the emitter's
// up-front buffers.
const streamQueue = 2

// Stream is the consumer end of a session's event stream: a Fabric with one
// subscription. Exactly one goroutine may consume a stream; Flush and Close
// belong to the producer side (call them only while no instrumented code of
// the session runs).
type Stream struct {
	fab *Fabric
	sub *Subscription
}

// Stream switches the session from callback dispatch to stream delivery and
// returns the consumer end. It must be called before the session's first
// Instantiate (the hook dispatchers are compiled then); afterwards the
// session's hooks append packed records instead of calling the analysis,
// and the analysis value's callback interfaces are not dispatched.
//
// The event classes streamed are the analysis value's StreamCaps when it
// implements EventStreamer, otherwise the capabilities of the callback
// interfaces it implements (useful to stream-record what an existing
// analysis would observe). If the analysis implements EventTableReceiver it
// receives the decode table now.
func (s *Session) Stream(opts ...StreamOption) (*Stream, error) {
	fab, err := s.openStream("Stream", opts)
	if err != nil {
		return nil, err
	}
	// A fresh emitter accepts subscribers.
	sub, _ := fab.em.Subscribe(streamQueue)
	return &Stream{fab: fab, sub: sub}, nil
}

// openStream is the construction behind Session.Stream and Session.Fanout:
// it validates, builds the emitter, and wires the session's stream hooks.
func (s *Session) openStream(method string, opts []StreamOption) (*Fabric, error) {
	if s.closed {
		return nil, fmt.Errorf("%w: %s", ErrSessionClosed, method)
	}
	if s.stream != nil {
		return nil, ErrStreamActive
	}
	if s.instantiated {
		return nil, ErrStreamAfterInstantiate
	}
	caps := streamCapsOf(s.analysis)
	if caps == 0 {
		return nil, errNoHooksFor(s.analysis)
	}
	if caps.HookSet()&s.compiled.meta.HookSet == 0 {
		return nil, &NoHooksError{
			AnalysisType: fmt.Sprintf("%T", s.analysis),
			Detail: fmt.Sprintf("streams only %q, but the module was instrumented for %q",
				caps.HookSet().String(), s.compiled.meta.HookSet.String()),
		}
	}
	cfg := streamConfig{batchSize: DefaultStreamBatchSize}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.batchSize < 1 {
		return nil, badOption("StreamBatchSize", cfg.batchSize, "a batch holds at least one record")
	}
	em := wruntime.NewEmitter(cfg.batchSize)
	s.rt.SetEmitter(em, caps)
	tbl := s.compiled.EventTable()
	if recv, ok := s.analysis.(analysis.EventTableReceiver); ok {
		recv.SetEventTable(tbl)
	}
	s.stream = &Fabric{em: em, tbl: tbl}
	return s.stream, nil
}

// streamCapsOf resolves the event classes to stream for an analysis value.
func streamCapsOf(a any) Cap {
	if es, ok := a.(analysis.EventStreamer); ok {
		return es.StreamCaps()
	}
	return analysis.CapsOf(a)
}

// Next returns the next batch of event records, blocking until the producer
// flushes one (batch full, top-level function return, explicit Flush, or
// Close). ok is false when the stream is closed and fully drained. The
// batch is BORROWED: it is valid only until the next Next call, which
// recycles the buffer.
func (st *Stream) Next() ([]Event, bool) { return st.sub.Next() }

// Serve pulls batches and hands each to sink until the stream ends. Run it
// on its own goroutine.
func (st *Stream) Serve(sink EventSink) { st.sub.Serve(sink) }

// Flush hands the partially filled batch to the consumer now. Producer-side:
// call it between invocations, never while instrumented code runs.
func (st *Stream) Flush() { st.fab.Flush() }

// Close flushes pending records and ends the stream: after the queued
// batches are drained, Next reports ok == false and Serve returns.
// Producer-side like Flush. Idempotent. The final flush waits for room in
// the queue, so keep the consumer draining until the stream ends.
func (st *Stream) Close() { st.fab.Close() }

// Dropped returns the number of event records discarded so far: by an
// interruption that abandoned a delivery, by events emitted after Close, by
// a failure that ended the stream, and by Session.Close's non-waiting
// teardown. A stream that is closed once (Stream.Close) and fully drained
// before its session closes loses nothing and reports 0.
func (st *Stream) Dropped() uint64 { return st.fab.Dropped() + st.sub.Dropped() }

// Table returns the decode table mapping Event.Hook indices back to hook
// kinds, instruction names, and payload types. Shared and immutable.
func (st *Stream) Table() *EventTable { return st.fab.Table() }

// Err returns the terminal error of a stream that was torn down by a
// failure — the *Trap or *RuntimeFault of the invocation that ended it, or
// a host-side emitter fault — and nil for a stream that is still live or
// ended cleanly (Close). Like a bufio.Scanner's Err, it is meaningful once
// the stream has ended: when Next reports ok == false / Serve returns, the
// error (if any) is already visible to the consumer goroutine.
func (st *Stream) Err() error { return st.fab.Err() }
