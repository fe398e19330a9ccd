package wasabi

// The fan-out surface of the event-stream API: one producer session, N
// concurrent subscribers over the same record stream. Session.Fanout opens
// the session's stream like Session.Stream does, but instead of a single
// consumer end it returns a Fabric that hands out Subscriptions — each with
// the familiar Next/Serve surface. At each flush the session's emitter
// publishes the batch to all of them by reference, on the producer's own
// goroutine, with no per-subscriber copy (see internal/runtime/emitter.go
// for the refcounted hand-off).
//
//	sess, _ := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
//	fab, _ := sess.Fanout()
//	for _, tenant := range tenants {
//	    sub, _ := fab.Subscribe()
//	    go sub.Serve(tenant.analysis)        // each on its own goroutine
//	}
//	inst, _ := sess.Instantiate("app", imports)
//	inst.Invoke("main")
//	fab.Close()                              // flush + end of stream
//
// Every subscription is lossless: once its queue of DefaultSubscriberQueue
// batches is full, the instrumented program stalls until it catches up. A
// subscriber that cannot keep up leaves with Subscription.Close, and
// Session.InvokeContext unwedges a producer that waits on one.

import (
	"wasabi/internal/analysis"
	wruntime "wasabi/internal/runtime"
)

// DefaultSubscriberQueue is the queue depth of every Fabric subscription,
// in batches: how many published batches may wait for its consumer before
// the producer stalls.
const DefaultSubscriberQueue = 8

// Subscription is one subscriber's end of a Fabric: Next/Serve like a
// Stream, plus Close to unsubscribe early and Dropped for its own loss
// count. Exactly one goroutine may consume a subscription.
type Subscription = wruntime.Subscription

// Fabric broadcasts a session's event stream to any number of
// subscriptions. The producer-side calls (Flush, Close) follow the same
// rules as a Stream's: call them only while no instrumented code of the
// session runs.
type Fabric struct {
	em  *wruntime.Emitter
	tbl *analysis.EventTable
}

// Fanout switches the session to stream delivery like Session.Stream, but
// fans the stream out: the returned Fabric broadcasts every batch to every
// Subscription. Same preconditions as Stream (before the first Instantiate,
// at most one stream per session); the analysis value is typically a
// StreamCaps anchor, since the actual consumers attach per subscription.
//
// Batches flushed while no subscription exists reach nobody — subscribe
// before invoking instrumented code to observe the complete record
// sequence.
func (s *Session) Fanout(opts ...StreamOption) (*Fabric, error) {
	return s.openStream("Fanout", opts)
}

// Subscribe adds a subscriber, whose queue holds DefaultSubscriberQueue
// batches, and returns its consumption end. Subscribers added while the
// producer is already running join mid-stream (they see batches flushed
// from now on); subscribing after the stream ended fails with
// ErrFabricClosed.
func (f *Fabric) Subscribe() (*Subscription, error) {
	return f.em.Subscribe(DefaultSubscriberQueue)
}

// Table returns the decode table shared by every subscription of this
// fabric (see Stream.Table).
func (f *Fabric) Table() *EventTable { return f.tbl }

// Flush hands the partially filled batch to the subscribers now.
// Producer-side: call it between invocations.
func (f *Fabric) Flush() { f.em.Flush() }

// Close flushes pending records and ends the stream: when Close returns,
// every record is either queued on a subscription or counted dropped, and
// subscribers' Next/Serve wind down with ok == false once they have drained
// their queues. Producer-side. Subscribers must keep draining until their
// subscription ends, exactly like a single-consumer stream.
// After a failed invocation the stream has already ended, and Close returns
// at once.
func (f *Fabric) Close() { f.em.Close() }

// Dropped returns the producer-side loss count of the underlying stream
// (records never published: emitted after the end of the stream, or pending
// at a fault or teardown). Per-subscriber losses (an interrupted delivery,
// batches still queued at Subscription.Close or teardown) are counted on
// each Subscription instead.
func (f *Fabric) Dropped() uint64 { return f.em.Dropped() }

// Err returns the terminal error of a fabric torn down by a failure, nil
// while live or after a clean Close — Stream.Err's contract, shared by
// every subscription: when a subscription ends, the error (if any) is
// already visible.
func (f *Fabric) Err() error { return f.em.Err() }

// StreamCaps returns an analysis anchor for fan-out sessions: a value
// whose only capability is streaming the given event classes. Pass it to
// CompiledAnalysis.NewSession when the session's events are consumed by
// fabric subscribers (attached later, each with its own analysis) rather
// than by the session's own analysis value.
func StreamCaps(caps Cap) any { return capsAnchor{caps: caps} }

type capsAnchor struct{ caps Cap }

// StreamCaps implements EventStreamer.
func (a capsAnchor) StreamCaps() Cap { return a.caps }

var _ analysis.EventStreamer = capsAnchor{}
