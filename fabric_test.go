package wasabi_test

// End-to-end coverage of the fan-out surface: the N-subscriber parity bar
// (every subscriber and a sink replay must observe the exact record
// sequence a single-consumer stream produces over the Fig 9 workload),
// teardown and interruption with a subscriber that stopped draining, and
// the fabric lifecycle errors. Everything here must be race-clean and
// leak-free: subscribers run on their own goroutines.

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"wasabi"
	"wasabi/internal/leakcheck"
	"wasabi/internal/polybench"
	"wasabi/internal/sink"
)

// recordSink copies every delivered record (batches are borrowed).
type recordSink struct {
	recs []wasabi.Event
}

func (r *recordSink) Events(batch []wasabi.Event) {
	r.recs = append(r.recs, batch...)
}

// collectStreamRecords runs the Fig 9 kernel under a single-consumer
// stream and returns the complete record sequence — the parity reference.
func collectStreamRecords(t *testing.T, compiled *wasabi.CompiledAnalysis) []wasabi.Event {
	t.Helper()
	sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.Stream()
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordSink{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.Serve(rec)
	}()
	inst, err := sess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("kernel"); err != nil {
		t.Fatal(err)
	}
	st.Close()
	<-done
	return rec.recs
}

// TestFanoutParity is the acceptance bar of the fabric: 8 subscribers plus
// a segment sink over one execution — every subscriber and the sink's
// replay must yield the single-consumer record sequence exactly.
func TestFanoutParity(t *testing.T) {
	defer leakcheck.Check(t)
	_, compiled := fig9Workload(t, 12)
	want := collectStreamRecords(t, compiled)
	if len(want) == 0 {
		t.Fatal("reference stream produced no records")
	}

	sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	fab, err := sess.Fanout()
	if err != nil {
		t.Fatal(err)
	}

	const subscribers = 8
	var wg sync.WaitGroup
	sinks := make([]*recordSink, subscribers)
	subs := make([]*wasabi.Subscription, subscribers)
	for i := range sinks {
		sub, err := fab.Subscribe()
		if err != nil {
			t.Fatal(err)
		}
		sinks[i], subs[i] = &recordSink{}, sub
		wg.Add(1)
		go func(sub *wasabi.Subscription, rs *recordSink) {
			defer wg.Done()
			sub.Serve(rs)
		}(sub, sinks[i])
	}

	evlog := filepath.Join(t.TempDir(), "fanout.evlog")
	w, err := sink.Create(evlog, fab.Table())
	if err != nil {
		t.Fatal(err)
	}
	sinkSub, err := fab.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sinkSub.Serve(w)
	}()

	inst, err := sess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("kernel"); err != nil {
		t.Fatal(err)
	}
	fab.Close()
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("sink Close: %v", err)
	}

	assertSeq := func(name string, got []wasabi.Event) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s observed %d records, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s record %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
	for i, rs := range sinks {
		assertSeq("subscriber "+string(rune('0'+i)), rs.recs)
		if d := subs[i].Dropped(); d != 0 {
			t.Errorf("subscriber %d dropped %d records", i, d)
		}
	}
	if fab.Dropped() != 0 {
		t.Errorf("producer-side drops on an all-drained fabric: %d", fab.Dropped())
	}

	r, err := sink.Open(evlog)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	defer r.Close()
	assertSeq("sink replay", r.Records())
	// And the replay decodes through the same table the live stream used.
	if len(r.Table().Specs) != len(fab.Table().Specs) {
		t.Errorf("replay table has %d specs, live table %d", len(r.Table().Specs), len(fab.Table().Specs))
	}
}

// TestFanoutLifecycleErrors drives the misuse paths: fabric ordering
// errors, subscribe-after-close, and double subscription close.
func TestFanoutLifecycleErrors(t *testing.T) {
	defer leakcheck.Check(t)
	_, compiled := fig9Workload(t, 4)

	t.Run("FanoutAfterStream", func(t *testing.T) {
		sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if _, err := sess.Stream(); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Fanout(); !errors.Is(err, wasabi.ErrStreamActive) {
			t.Fatalf("Fanout after Stream = %v, want ErrStreamActive", err)
		}
	})

	t.Run("FanoutAfterInstantiate", func(t *testing.T) {
		sess, err := compiled.NewSession(&nopOnly{})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if _, err := sess.Instantiate("", polybench.HostImports(nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Fanout(); !errors.Is(err, wasabi.ErrStreamAfterInstantiate) {
			t.Fatalf("Fanout after Instantiate = %v, want ErrStreamAfterInstantiate", err)
		}
	})

	t.Run("SubscribeAfterClose", func(t *testing.T) {
		sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		fab, err := sess.Fanout()
		if err != nil {
			t.Fatal(err)
		}
		fab.Close()
		if _, err := fab.Subscribe(); !errors.Is(err, wasabi.ErrFabricClosed) {
			t.Fatalf("Subscribe after Close = %v, want ErrFabricClosed", err)
		}
	})

	t.Run("DoubleSubscriptionClose", func(t *testing.T) {
		sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		fab, err := sess.Fanout()
		if err != nil {
			t.Fatal(err)
		}
		sub, err := fab.Subscribe()
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Close(); err != nil {
			t.Fatalf("first Close: %v", err)
		}
		if err := sub.Close(); !errors.Is(err, wasabi.ErrSubscriptionClosed) {
			t.Fatalf("second Close = %v, want ErrSubscriptionClosed", err)
		}
		fab.Close()
	})
}

// TestFanoutSessionCloseTeardown: closing the session with a subscriber that
// stopped draining must not hang (the registry-eviction analogue of the
// stream teardown bar), the subscriber must observe end-of-stream, and
// every record it never received counts in its Dropped.
func TestFanoutSessionCloseTeardown(t *testing.T) {
	defer leakcheck.Check(t)
	_, compiled := fig9Workload(t, 8)
	produced := uint64(len(collectStreamRecords(t, compiled)))
	sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
	if err != nil {
		t.Fatal(err)
	}
	// One batch holds the whole run, so the run completes although nobody
	// drains the subscription.
	fab, err := sess.Fanout(wasabi.StreamBatchSize(int(produced)))
	if err != nil {
		t.Fatal(err)
	}
	wedged, err := fab.Subscribe() // never drained
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("kernel"); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		sess.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(60 * time.Second):
		t.Fatal("Session.Close hung on an undrained subscriber")
	}
	// Teardown discarded what was queued and counted it; the subscription
	// ends.
	if _, ok := wedged.Next(); ok {
		t.Error("the subscription delivered a batch after teardown")
	}
	if got := wedged.Dropped(); got != produced {
		t.Errorf("teardown counted %d dropped records, want all %d produced", got, produced)
	}

	t.Run("BlockAfterDeadline", func(t *testing.T) {
		sess, fab := spinFanout(t)
		wedged, err := fab.Subscribe() // never drained
		if err != nil {
			t.Fatal(err)
		}
		inst, err := sess.Instantiate("", nil)
		if err != nil {
			t.Fatal(err)
		}
		// The producer wedges on the full queue; only the deadline ends the run.
		if _, err := sess.InvokeContext(spinDeadline(t), inst, "spin"); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		closed := make(chan struct{})
		go func() {
			sess.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Session.Close hung on a wedged subscriber")
		}
		if _, ok := wedged.Next(); ok {
			t.Error("the subscription delivered a batch after teardown")
		}
		if wedged.Dropped() == 0 {
			t.Error("neither the abandoned delivery nor the discarded queue was counted")
		}
	})
}

// spinFanout opens a fan-out session over the runaway spin module on an
// engine that compiles interruptible code; invoke it under spinDeadline.
// Batches hold 8 records, so an undrained subscription's queue of
// DefaultSubscriberQueue batches fills within the first loop iterations.
func spinFanout(t *testing.T) (*wasabi.Session, *wasabi.Fabric) {
	t.Helper()
	engine := mustEngine(t, wasabi.WithFuel(0))
	compiled, err := engine.InstrumentFor(spinModule(), &brCounter{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	fab, err := sess.Fanout(wasabi.StreamBatchSize(8))
	if err != nil {
		t.Fatal(err)
	}
	return sess, fab
}

// spinDeadline returns a context that ends a spinFanout invocation after
// 20ms.
func spinDeadline(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	t.Cleanup(cancel)
	return ctx
}

// TestFanoutCloseAfterInterrupt is the regression test for interrupting a
// fan-out session whose subscriber stopped draining: the interruption
// reaches the only place that waits (the emitter's Flush), so Fabric.Close
// returns at once and the fabric ends with the interruption as its error.
func TestFanoutCloseAfterInterrupt(t *testing.T) {
	leakcheck.Check(t)
	sess, fab := spinFanout(t)
	if _, err := fab.Subscribe(); err != nil { // never drained
		t.Fatal(err)
	}
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.InvokeContext(spinDeadline(t), inst, "spin"); !errors.Is(err, wasabi.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	closed := make(chan struct{})
	go func() {
		fab.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Fabric.Close hung after the invocation was interrupted")
	}
	if err := fab.Err(); !errors.Is(err, wasabi.ErrInterrupted) {
		t.Errorf("Fabric.Err() = %v, want ErrInterrupted", err)
	}
}

// TestFanoutStartsNoGoroutine pins that publication runs on the producer's
// goroutine: opening a fan-out and subscribing four times starts none.
func TestFanoutStartsNoGoroutine(t *testing.T) {
	_, compiled := fig9Workload(t, 4)
	sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	before := runtime.NumGoroutine()
	fab, err := sess.Fanout()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := fab.Subscribe(); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("Fanout plus 4 Subscribe calls started %d goroutines", after-before)
	}
}
