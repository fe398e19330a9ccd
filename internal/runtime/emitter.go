package runtime

// Emitter is the transport of the event-stream surface: one producer (the
// session goroutine running instrumented code, appending packed records
// through the compiled encoders in encoder.go) publishing whole batches to
// any number of Subscriptions. Flush, on the producer's own goroutine, hands
// every subscription a refcounted reference to the same buffer — no
// per-subscriber copy — and the last holder to release a batch returns its
// buffer to the emitter's pool, so steady-state emission allocates nothing.
//
// Flush points: a batch is published when it fills, when a top-level call
// into an instance completes (the session installs Flush as the instance's
// top-return hook), and on explicit Flush/Close.
//
// Delivery is lossless. When a subscription's queue is full, Flush waits
// until the queue has room, the subscriber leaves (Subscription.Close), or
// Interrupt fires: the instrumented program stalls until the consumer
// catches up, so the consumer must run concurrently. Records are lost only
// where an interruption, a subscriber's Close, a failure or teardown
// discards them, and each loss is counted (Dropped).

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"wasabi/internal/analysis"
	"wasabi/internal/failpoint"
)

// ErrClosed reports Subscribe after the producer side ended the stream
// (Close, teardown, or a terminal error): a late subscriber could only ever
// observe silence, which is never what the caller meant.
var ErrClosed = errors.New("wasabi: fabric is closed to new subscribers")

// ErrSubscriptionClosed reports a second Subscription.Close: the first Close
// already released the subscription's queued batches, so a double close is a
// lifecycle bug on the caller's side, not a no-op.
var ErrSubscriptionClosed = errors.New("wasabi: subscription is already closed")

// emitterBuffers is the number of batch buffers allocated up front: the one
// being filled, two queued on a two-deep subscription, and the one its
// consumer holds. A single-subscription stream therefore never allocates
// after construction; fan-outs whose subscribers hold more batches grow the
// pool on demand.
const emitterBuffers = 4

// batchRef is one published batch: the buffer plus the number of holders
// (queued subscriptions, Flush while it publishes, a consumer between Next
// calls). Refs are pooled together with their buffers.
type batchRef struct {
	buf  []analysis.Event
	refs atomic.Int32
	em   *Emitter
}

// release drops one hold; the last returns the batch to the pool.
func (r *batchRef) release() {
	if r.refs.Add(-1) == 0 {
		r.em.mu.Lock()
		r.em.free = append(r.em.free, r)
		r.em.mu.Unlock()
	}
}

// Emitter is the producer end of one event stream.
type Emitter struct {
	cur       []analysis.Event // batch being filled (producer-owned)
	ref       *batchRef        // carries cur when it is published
	batchSize int
	dropped   atomic.Uint64 // producer-side losses

	mu     sync.Mutex
	subs   []*Subscription // copy-on-write: Flush reads it without copying
	free   []*batchRef     // released batches, reused as cur
	closed bool            // ended: nothing is published, nobody subscribes
	err    error           // first terminal error (Fail)
	// stopc is closed by Interrupt (any goroutine) so that a delivery
	// waiting in Flush gives up; ClearInterrupt re-arms it between
	// invocations.
	stopc chan struct{}
}

// NewEmitter creates an emitter whose batches hold batchSize records.
func NewEmitter(batchSize int) *Emitter {
	em := &Emitter{batchSize: max(batchSize, 1), stopc: make(chan struct{})}
	for len(em.free) < emitterBuffers {
		em.free = append(em.free, em.newRef())
	}
	em.next()
	return em
}

func (em *Emitter) newRef() *batchRef {
	return &batchRef{buf: make([]analysis.Event, 0, em.batchSize), em: em}
}

// next makes a pooled batch the one being filled, allocating only when the
// subscribers hold every buffer.
func (em *Emitter) next() {
	em.mu.Lock()
	if n := len(em.free); n > 0 {
		em.ref = em.free[n-1]
		em.free = em.free[:n-1]
	} else {
		em.ref = em.newRef()
	}
	em.mu.Unlock()
	em.cur = em.ref.buf[:0]
}

// Subscribe adds a subscription with a queue of up to queue batches. A
// subscription added while the producer runs joins mid-stream. Fails with
// ErrClosed once the stream has ended.
func (em *Emitter) Subscribe(queue int) (*Subscription, error) {
	s := &Subscription{em: em, ch: make(chan *batchRef, max(queue, 1)), gone: make(chan struct{})}
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.closed {
		return nil, ErrClosed
	}
	em.subs = append(slices.Clip(em.subs), s)
	return s, nil
}

// emit appends one record, flushing first when the batch is full.
func (em *Emitter) emit(e analysis.Event) {
	if err := failpoint.Inject(failpoint.EmitterEmit); err != nil {
		em.Fail(err)
		return
	}
	if len(em.cur) == cap(em.cur) {
		em.Flush()
	}
	em.cur = append(em.cur, e)
}

// reserve makes room for an n-record group (a primary record plus its
// continuations), so the group never straddles a batch boundary: emit's
// batch-full check cannot fire mid-group once len+n <= cap holds. A group
// larger than the batch capacity itself replaces the current buffer with a
// grown one, which is published and pooled like any other — a rare one-time
// allocation, not a per-event one.
func (em *Emitter) reserve(n int) {
	if len(em.cur)+n <= cap(em.cur) {
		return
	}
	em.Flush()
	if n > cap(em.cur) {
		em.cur = make([]analysis.Event, 0, n)
	}
}

// Flush publishes the current batch to every subscription, waiting on a
// full queue as the file comment describes. Safe to call with an empty batch
// (no-op), and after the stream ended (the records count as dropped).
// Producer-side: call it only from the goroutine running instrumented code,
// or while none runs.
func (em *Emitter) Flush() {
	if len(em.cur) == 0 {
		return
	}
	em.mu.Lock()
	closed, subs := em.closed, em.subs
	em.mu.Unlock()
	if closed {
		em.discardCur()
		return
	}
	if err := failpoint.Inject(failpoint.EmitterFlush); err != nil {
		em.Fail(err)
		return
	}
	ref := em.ref
	ref.buf = em.cur
	// Holders: every subscription plus Flush itself, counted up front so a
	// consumer that receives and releases early cannot recycle the batch
	// while later subscriptions are still being offered it.
	ref.refs.Store(int32(len(subs)) + 1)
	for _, s := range subs {
		s.deliver(ref, em.stopc)
	}
	ref.release()
	em.next()
}

// discardCur counts the pending records as producer-side drops.
func (em *Emitter) discardCur() {
	em.dropped.Add(uint64(len(em.cur)))
	em.cur = em.cur[:0]
}

// Interrupt makes a delivery waiting in Flush give up (the batch counts as
// dropped on each subscription that did not receive it), and makes later
// deliveries to a full queue do the same until ClearInterrupt. The one
// Emitter method safe to call from any goroutine; the session layer pairs it
// with Instance.Interrupt so a cancelled invocation cannot stay wedged on a
// lagging consumer. Idempotent.
func (em *Emitter) Interrupt() {
	em.mu.Lock()
	defer em.mu.Unlock()
	select {
	case <-em.stopc:
	default:
		close(em.stopc)
	}
}

// ClearInterrupt makes deliveries wait on a full queue again after an
// Interrupt. Producer-side, like Flush: call it only between invocations.
func (em *Emitter) ClearInterrupt() {
	em.mu.Lock()
	defer em.mu.Unlock()
	select {
	case <-em.stopc:
		em.stopc = make(chan struct{})
	default:
	}
}

// Close publishes the pending batch and ends the stream: subscribers receive
// what is queued, then Next reports ok == false. Producer-side like Flush.
// Idempotent. The final delivery waits for room, so keep every consumer
// draining until its subscription ends.
func (em *Emitter) Close() {
	em.Flush()
	em.end()
}

// Fail ends the stream with a terminal error: the pending batch is discarded
// and counted, subscribers receive what is queued and then end, and err is
// recorded for Err (the first error wins). Producer-side, like Flush.
func (em *Emitter) Fail(err error) {
	em.mu.Lock()
	if em.err == nil {
		em.err = err
	}
	em.mu.Unlock()
	em.discardCur()
	em.end()
}

// end stops publication: Subscribe fails from now on, and every subscription
// ends once its queue is drained.
func (em *Emitter) end() {
	em.mu.Lock()
	defer em.mu.Unlock()
	if !em.closed {
		em.closed = true
		for _, s := range em.subs {
			close(s.ch)
		}
	}
}

// CloseDiscard is the teardown path: it ends the stream without waiting for
// any consumer. The pending batch counts on the emitter; batches still
// queued are released unseen and count on their own subscription. Then the
// pooled buffers are let go, so a closed stream does not pin its batch
// memory. Producer-side, idempotent, and safe after Close or Fail.
func (em *Emitter) CloseDiscard() {
	em.discardCur()
	em.end()
	em.mu.Lock()
	subs := em.subs
	em.free = nil
	em.mu.Unlock()
	em.cur, em.ref = nil, nil
	for _, s := range subs {
		s.discard()
	}
}

// Err returns the terminal error recorded by Fail, or nil. Safe from any
// goroutine.
func (em *Emitter) Err() error {
	em.mu.Lock()
	defer em.mu.Unlock()
	return em.err
}

// Dropped returns the number of records lost before publication: flushed
// after the stream ended, or pending at a fault or teardown. Losses of a
// published batch count on the subscription that missed it.
func (em *Emitter) Dropped() uint64 { return em.dropped.Load() }

// Subscription is one subscriber's end of an Emitter: its own queue and
// the Next/Serve consumption surface. Exactly one goroutine may consume a
// subscription, and Close belongs to that goroutine too.
type Subscription struct {
	em      *Emitter
	ch      chan *batchRef
	gone    chan struct{} // closed by Close; a waiting delivery stops waiting
	closed  bool
	prev    *batchRef // batch last handed out by Next
	dropped atomic.Uint64
}

// deliver queues ref, waiting while the queue is full. A batch that stop
// abandons counts on the subscription; one the subscriber left before
// receiving does not.
func (s *Subscription) deliver(ref *batchRef, stop <-chan struct{}) {
	select {
	case s.ch <- ref:
		return
	default:
	}
	select {
	case s.ch <- ref:
	case <-s.gone:
		ref.release()
	case <-stop:
		s.dropped.Add(uint64(len(ref.buf)))
		ref.release()
	}
}

// discard releases every queued batch unseen, counting its records.
func (s *Subscription) discard() {
	for {
		select {
		case ref, ok := <-s.ch:
			if !ok {
				return
			}
			s.dropped.Add(uint64(len(ref.buf)))
			ref.release()
		default:
			return
		}
	}
}

// Next returns the next batch, blocking until one is published or the stream
// ends (ok == false). The batch is BORROWED and read-only: it is shared with
// every other subscription and recycled once the following Next call
// releases this subscription's hold on it.
func (s *Subscription) Next() ([]analysis.Event, bool) {
	if s.prev != nil {
		s.prev.release()
		s.prev = nil
	}
	if s.closed {
		return nil, false
	}
	ref, ok := <-s.ch
	if !ok {
		return nil, false
	}
	s.prev = ref
	return ref.buf, true
}

// Serve pulls batches and hands each to sink until the stream ends or the
// subscription is closed.
func (s *Subscription) Serve(sink analysis.EventSink) {
	for {
		batch, ok := s.Next()
		if !ok {
			return
		}
		sink.Events(batch)
	}
}

// Close unsubscribes: queued batches are released unseen and counted in
// Dropped, and Flush stops delivering here (and stops waiting on this
// queue). Consumer-side, like Next. A second Close fails
// with ErrSubscriptionClosed. Closing is optional for a subscription consumed
// to the end of the stream; it lets a subscriber leave early without
// wedging the producer.
func (s *Subscription) Close() error {
	if s.closed {
		return ErrSubscriptionClosed
	}
	s.closed = true
	if s.prev != nil {
		s.prev.release()
		s.prev = nil
	}
	close(s.gone)
	s.em.mu.Lock()
	s.em.subs = slices.DeleteFunc(slices.Clone(s.em.subs), func(x *Subscription) bool { return x == s })
	s.em.mu.Unlock()
	// A Flush holding the old list can still slip one batch in after this
	// drain; that buffer is left to the GC and the pool allocates a
	// replacement — a bounded leak, never a stall.
	s.discard()
	return nil
}

// Dropped returns how many records this subscription missed: abandoned by
// Interrupt, or still queued at teardown or Close.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }
