package runtime

// Unit parity + allocation guard for the record encoders (the stream
// siblings of the trampolines): every generated EventSpec is dispatched
// through the callback trampoline into one recorder, and through the record
// encoder and the record decoder (analysis.NewDecoder) into another, on
// identical lowered argument vectors, and the recorded callbacks must match
// exactly — the strongest available statement that the packed record format
// carries everything the callbacks carry. The allocation guard is
// TestDispatchZeroAllocs's twin for the stream path.

import (
	"strings"
	"testing"
	"time"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/interp"
)

// encoderFixture compiles every encoder of one parity spec set against an
// emitter, next to a trampoline set bound to a recorder on the same
// metadata.
type encoderFixture struct {
	md     *core.Metadata
	inst   *interp.Instance
	em     *Emitter
	sub    *Subscription
	rec    *recorder
	specs  []*analysis.EventSpec
	tramps []hookFn
	encs   []hookFn
}

func newEncoderFixture(t testing.TB, set paritySet, batchSize int) *encoderFixture {
	t.Helper()
	md := set.md
	rec := &recorder{}
	rtT := New(md, rec)

	em := NewEmitter(batchSize)
	sub, err := em.Subscribe(2)
	if err != nil {
		t.Fatal(err)
	}
	rtE := New(md, struct{}{})
	rtE.SetEmitter(em, analysis.AllCaps|analysis.CapBlockCoverage)

	inst, err := interp.Instantiate(set.instrumented, rtT.Imports())
	if err != nil {
		t.Fatal(err)
	}

	fx := &encoderFixture{md: md, inst: inst, em: em, sub: sub, rec: rec}
	tramps, encs := hostFuncs(rtT), hostFuncs(rtE)
	for i := range md.Specs {
		spec := &md.Specs[i]
		if tramps[i].NoOp {
			t.Fatalf("hook %s: recorder bound to no-op trampoline", spec.Name)
		}
		if encs[i].NoOp {
			t.Fatalf("hook %s: all-caps stream bound to no-op encoder", spec.Name)
		}
		fx.specs = append(fx.specs, spec)
		fx.tramps = append(fx.tramps, tramps[i].Fast)
		fx.encs = append(fx.encs, encs[i].Fast)
	}
	return fx
}

func TestEncoderParityWithTrampolines(t *testing.T) {
	for _, set := range paritySets(t) {
		fx := newEncoderFixture(t, set, 1<<14)
		fx.rec.events = nil // drop the start function's events from instantiation
		for i, spec := range fx.specs {
			for _, args := range parityVectors(spec) {
				fx.tramps[i](fx.inst, args)
				fx.encs[i](fx.inst, args)
			}
		}
		fx.em.Close()

		tbl := &fx.md.EventTable
		decoded := &recorder{}
		dec := analysis.NewDecoder(tbl, decoded)
		for {
			batch, ok := fx.sub.Next()
			if !ok {
				break
			}
			dec.Events(batch)
		}

		want, got := fx.rec.events, decoded.events
		if len(got) != len(want) {
			t.Fatalf("%s: decoder dispatched %d events, trampolines %d", set.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: event %d:\n  trampoline: %s\n  decoder:    %s", set.name, i, want[i], got[i])
			}
		}
		// The suite must reach the shapes the decoder reassembles: br_table
		// target tables (the default entry too), call vectors spilling into
		// continuation records, and block probes.
		joined := strings.Join(got, "\n")
		for _, shape := range map[string][]string{
			"all":         {"br_table 3:17 [{", "call_pre 3:17 0 [", "call_post 3:17 ["},
			"block_probe": {"block_probe 3:17"},
		}[set.name] {
			if !strings.Contains(joined, shape) {
				t.Errorf("%s: no decoded event contains %q", set.name, shape)
			}
		}
	}
}

// TestEncoderDeadHookElision pins that hooks outside the stream capability
// set compile to elidable no-ops, exactly like dead callback hooks.
func TestEncoderDeadHookElision(t *testing.T) {
	md := paritySets(t)[0].md
	rt := New(md, struct{}{})
	rt.SetEmitter(NewEmitter(16), analysis.CapBinary)
	for i, hf := range hostFuncs(rt) {
		spec := &md.Specs[i]
		if want := spec.Kind != analysis.KindBinary; hf.NoOp != want {
			t.Errorf("hook %s: noop = %v, want %v under CapBinary-only stream", spec.Name, hf.NoOp, want)
		}
	}
}

// TestStreamEmitZeroAllocs is the stream twin of TestDispatchZeroAllocs:
// steady-state record emission — including the batch hand-off to a
// concurrent consumer and the recycling of its buffers — must not allocate,
// for every hook kind.
func TestStreamEmitZeroAllocs(t *testing.T) {
	var flushed int
	for _, set := range paritySets(t) {
		fx := newEncoderFixture(t, set, 256) // small batches: flush inside the measurement
		batches := 0
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if _, ok := fx.sub.Next(); !ok {
					return
				}
				batches++
			}
		}()
		for i, spec := range fx.specs {
			args := synthArgs(spec, len(spec.WasmType().Params))
			enc := fx.encs[i]
			allocs := testing.AllocsPerRun(200, func() {
				enc(fx.inst, args)
			})
			if allocs != 0 {
				t.Errorf("%s: hook %s: %.1f allocs/op, want 0", set.name, spec.Name, allocs)
			}
		}
		fx.em.Close()
		<-done
		flushed += batches - 1 // every batch but Close's last was flushed by an encoder
	}
	if flushed == 0 {
		t.Error("no batch was flushed inside the measurement; the guard did not exercise the flush path")
	}
}

// TestEmitterBlockDelivery checks the lossless hand-off: a concurrent
// consumer sees every emitted record, in order, across many batch cycles.
func TestEmitterBlockDelivery(t *testing.T) {
	em := NewEmitter(64)
	sub, err := em.Subscribe(2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10_000
	got := make([]uint32, 0, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			batch, ok := sub.Next()
			if !ok {
				return
			}
			for i := range batch {
				got = append(got, batch[i].Aux)
			}
		}
	}()
	for i := 0; i < n; i++ {
		em.emit(analysis.Event{Aux: uint32(i)})
	}
	em.Close()
	<-done
	if len(got) != n {
		t.Fatalf("consumer saw %d events, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("event %d out of order: %d", i, v)
		}
	}
	if em.Dropped()+sub.Dropped() != 0 {
		t.Errorf("lossless delivery dropped %d events", em.Dropped()+sub.Dropped())
	}
}

// TestEmitterCloseDiscardNeverBlocks pins the teardown path: with a
// subscription's queue at capacity, a non-empty current batch, and no
// consumer, CloseDiscard must return (Close's lossless final flush would
// wait forever here) and account every event as dropped.
func TestEmitterCloseDiscardNeverBlocks(t *testing.T) {
	em := NewEmitter(4)
	sub, err := em.Subscribe(2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 11 // two full batches into the queue + 3 pending in cur
	for i := 0; i < n; i++ {
		em.emit(analysis.Event{Aux: uint32(i)})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		em.CloseDiscard()
		em.CloseDiscard() // idempotent
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("CloseDiscard blocked")
	}
	if em.Dropped()+sub.Dropped() != n {
		t.Errorf("dropped %d events, want all %d", em.Dropped()+sub.Dropped(), n)
	}
	if _, ok := sub.Next(); ok {
		t.Error("Next delivered a batch after CloseDiscard")
	}
}
