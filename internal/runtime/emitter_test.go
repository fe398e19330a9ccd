package runtime

// Unit coverage of the emitter's publication path: broadcast parity across
// subscriptions, the subscription lifecycle, interruption of a blocked
// delivery, the buffer pool, and the stream half of the accounting test —
// every published record is either delivered to a subscription or counted
// on it.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"wasabi/internal/analysis"
)

// emitN emits records carrying the sequence numbers [from, to) in Aux, so
// delivery order and identity are checkable.
func emitN(em *Emitter, from, to int) {
	for i := from; i < to; i++ {
		em.emit(analysis.Event{Aux: uint32(i), Instr: int32(i)})
	}
}

// consume drains sub on its own goroutine; the returned function waits for
// the end of the subscription and returns the records it saw.
func consume(sub *Subscription) func() []analysis.Event {
	done := make(chan []analysis.Event, 1)
	go func() {
		var got []analysis.Event
		for {
			batch, ok := sub.Next()
			if !ok {
				done <- got
				return
			}
			got = append(got, batch...)
		}
	}()
	return func() []analysis.Event { return <-done }
}

func mustSubscribe(t *testing.T, em *Emitter, queue int) *Subscription {
	t.Helper()
	sub, err := em.Subscribe(queue)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	return sub
}

// withTimeout fails the test if fn does not return within 10 seconds.
func withTimeout(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

func TestBroadcastParity(t *testing.T) {
	const n = 16*4 + 3
	em := NewEmitter(4)
	const subscribers = 4
	subs := make([]*Subscription, subscribers)
	waits := make([]func() []analysis.Event, subscribers)
	for i := range subs {
		subs[i] = mustSubscribe(t, em, 2)
		waits[i] = consume(subs[i])
	}
	emitN(em, 0, n)
	em.Close()
	for i, wait := range waits {
		got := wait()
		if len(got) != n {
			t.Fatalf("subscriber %d: %d records, want %d", i, len(got), n)
		}
		for j := range got {
			if got[j].Aux != uint32(j) {
				t.Fatalf("subscriber %d: record %d carries %d", i, j, got[j].Aux)
			}
		}
		if d := subs[i].Dropped(); d != 0 {
			t.Errorf("subscriber %d: Dropped() = %d on a drained subscription", i, d)
		}
	}
	if em.Dropped() != 0 {
		t.Errorf("producer dropped %d records", em.Dropped())
	}
}

func TestSubscribeAfterCloseFails(t *testing.T) {
	em := NewEmitter(4)
	em.Close()
	if _, err := em.Subscribe(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after Close = %v, want ErrClosed", err)
	}
}

func TestDoubleSubscriptionClose(t *testing.T) {
	em := NewEmitter(2)
	sub := mustSubscribe(t, em, 1)
	emitN(em, 0, 2)
	em.Flush()
	if err := sub.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := sub.Close(); !errors.Is(err, ErrSubscriptionClosed) {
		t.Fatalf("second Close = %v, want ErrSubscriptionClosed", err)
	}
	if _, ok := sub.Next(); ok {
		t.Fatal("Next after Close delivered a batch")
	}
	if sub.Dropped() != 2 {
		t.Errorf("Close discarded %d queued records, want 2", sub.Dropped())
	}
	// The subscription left: later batches neither block nor reach it.
	withTimeout(t, "Flush after the only subscription left", func() {
		emitN(em, 2, 10)
		em.Close()
	})
}

// TestInterruptUnwedgesBlockedFlush covers the one place the producer can
// wait: a subscription that stops draining wedges Flush, and Interrupt must
// unwedge it, counting the abandoned batch on that subscription.
func TestInterruptUnwedgesBlockedFlush(t *testing.T) {
	em := NewEmitter(2)
	sub := mustSubscribe(t, em, 1) // never drained
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		emitN(em, 0, 5) // the second batch finds the queue full
	}()
	select {
	case <-produced:
		t.Fatal("producer did not block on a full queue")
	case <-time.After(20 * time.Millisecond):
	}
	em.Interrupt()
	withTimeout(t, "Flush after Interrupt", func() { <-produced })
	em.ClearInterrupt()
	if sub.Dropped() != 2 {
		t.Errorf("abandoned delivery counted %d records, want 2", sub.Dropped())
	}
	em.CloseDiscard()
}

// TestBufferEconomy pins the pool: a drained single-subscription stream runs
// on the buffers allocated up front, and every batch returns to the pool
// once its last holder releases it.
func TestBufferEconomy(t *testing.T) {
	em := NewEmitter(4)
	initial := map[*batchRef]bool{em.ref: true}
	for _, r := range em.free {
		initial[r] = true
	}
	wait := consume(mustSubscribe(t, em, 2))
	emitN(em, 0, 400)
	em.Close()
	wait()
	if len(em.free)+1 != emitterBuffers {
		t.Errorf("pool holds %d batches plus the one being filled, want %d", len(em.free), emitterBuffers)
	}
	for _, r := range append(em.free, em.ref) {
		if !initial[r] {
			t.Error("pool grew beyond the buffers allocated up front")
		}
	}
}

// TestSubscriptionAccounting is the stream half of the accounting test: for
// every subscription, records delivered plus Subscription.Dropped equal the
// records published while it was subscribed, and Emitter.Dropped holds the
// producer-side rest.
func TestSubscriptionAccounting(t *testing.T) {
	// check asserts the balance for subscriptions present from the first
	// record on, after emitted records and a producer-side loss of rest.
	check := func(t *testing.T, em *Emitter, emitted, rest uint64, subs []*Subscription, delivered []int) {
		t.Helper()
		if got := em.Dropped(); got != rest {
			t.Errorf("Emitter.Dropped = %d, want %d", got, rest)
		}
		for i, s := range subs {
			if got := uint64(delivered[i]) + s.Dropped(); got != emitted-rest {
				t.Errorf("subscription %d: %d delivered + %d dropped != %d published",
					i, delivered[i], s.Dropped(), emitted-rest)
			}
		}
	}

	t.Run("DrainedBlock", func(t *testing.T) {
		em := NewEmitter(4)
		sub := mustSubscribe(t, em, 2)
		wait := consume(sub)
		emitN(em, 0, 103)
		em.Close()
		got := wait()
		check(t, em, 103, 0, []*Subscription{sub}, []int{len(got)})
		if sub.Dropped() != 0 {
			t.Errorf("drained subscription dropped %d", sub.Dropped())
		}
	})

	t.Run("TeardownWithQueuedBatches", func(t *testing.T) {
		em := NewEmitter(4)
		a := mustSubscribe(t, em, 2)
		b := mustSubscribe(t, em, 2)
		emitN(em, 0, 11) // two batches published, 3 records pending
		em.CloseDiscard()
		emitN(em, 11, 14) // after teardown: producer-side losses
		em.Flush()
		delivered := []int{len(consume(a)()), len(consume(b)())}
		check(t, em, 14, 6, []*Subscription{a, b}, delivered)
		if delivered[0]+delivered[1] != 0 {
			t.Errorf("teardown left %v records to deliver", delivered)
		}
	})

	t.Run("InterruptedBlockDelivery", func(t *testing.T) {
		em := NewEmitter(4)
		stuck := mustSubscribe(t, em, 1) // never drained
		peer := mustSubscribe(t, em, 2)
		wait := consume(peer)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			emitN(em, 0, 103)
		}()
		time.Sleep(20 * time.Millisecond) // let the producer wedge on stuck
		em.Interrupt()
		withTimeout(t, "interrupted producer", wg.Wait)
		// Still interrupted, like a session's top-return flush: the final
		// delivery to the full queue is abandoned as well.
		em.Close()
		em.ClearInterrupt()
		delivered := []int{len(consume(stuck)()), len(wait())}
		check(t, em, 103, 0, []*Subscription{stuck, peer}, delivered)
		if stuck.Dropped() == 0 {
			t.Error("the abandoned delivery was not counted on the stuck subscription")
		}
	})
}
