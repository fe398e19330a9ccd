package runtime

// Unit parity + allocation guard for the record encoders (the stream
// siblings of the trampolines): every generated HookSpec is dispatched
// through the callback trampoline (bound to the callback Tracer) and the
// record encoder (whose records are decoded by the StreamTracer) on
// identical lowered argument vectors, and the formatted event lines must
// match exactly — the strongest available statement that the packed record
// format carries everything the callbacks carry. The allocation guard is
// TestDispatchZeroAllocs's twin for the stream path.

import (
	"fmt"
	"testing"
	"time"

	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

// probeTracer adds the block-probe callback, which the callback Tracer does
// not implement (a static engine would collapse its instrumentation to
// probes), in the format streamLines decodes probe records to.
type probeTracer struct{ *analyses.Tracer }

func (tr probeTracer) BlockCovered(l analysis.Location, end int) {
	tr.Events = append(tr.Events, fmt.Sprintf("%v block_probe %d", l, end))
}

// streamLines decodes a batch through the StreamTracer, formatting the block
// probe records it does not know like probeTracer.
func streamLines(st *analyses.StreamTracer, tbl *analysis.EventTable, batch []analysis.Event) {
	for i := 0; i < len(batch); {
		next := tbl.Next(batch, i)
		if e := &batch[i]; e.Kind == analysis.KindBlockProbe {
			st.Lines = append(st.Lines, fmt.Sprintf("%v block_probe %d", e.Loc(), int(int32(e.Aux))))
		} else {
			st.Events(batch[i:next])
		}
		i = next
	}
}

// checkPacks verifies that the Pack bytes of a batch's call and return
// groups describe their values: decoding the primary record (after
// call_pre's i64 table index) and its continuations through Event.Val gives
// the values EventTable.AppendValues types through the spec.
func checkPacks(t *testing.T, tbl *analysis.EventTable, batch []analysis.Event) {
	t.Helper()
	for i := 0; i < len(batch); {
		next := tbl.Next(batch, i)
		if e := &batch[i]; e.Kind == analysis.KindCall || e.Kind == analysis.KindReturn {
			want, _ := tbl.AppendValues(nil, batch, i)
			var got []analysis.Value
			slot := 0
			if e.Kind == analysis.KindCall && !tbl.Spec(e).Post {
				if e.NumVals() == 0 || e.Val(0).Type != wasm.I64 {
					t.Errorf("%s: Pack %#x does not start with the i64 table index", tbl.Spec(e).Name, e.Pack)
				}
				slot = 1
			}
			for j := i; j < next; j, slot = j+1, 0 {
				for ; slot < batch[j].NumVals(); slot++ {
					got = append(got, batch[j].Val(slot))
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: Pack bytes decode %v, spec types decode %v", tbl.Spec(e).Name, got, want)
			}
		}
		i = next
	}
}

// encoderFixture compiles every encoder of one parity spec set against an
// emitter, next to a trampoline set bound to a callback tracer on the same
// metadata.
type encoderFixture struct {
	md     *core.Metadata
	inst   *interp.Instance
	em     *Emitter
	tracer probeTracer
	specs  []*core.HookSpec
	tramps []hookFn
	encs   []emitFn
}

func newEncoderFixture(t testing.TB, set paritySet, batchSize int, mode Backpressure) *encoderFixture {
	t.Helper()
	md := set.md
	tracer := probeTracer{analyses.NewTracer()}
	rtT := New(md, tracer)

	em := NewEmitter(batchSize, mode)
	rtE := New(md, struct{}{})
	rtE.SetEmitter(em, analysis.AllCaps|analysis.CapBlockCoverage)

	inst, err := interp.Instantiate(set.instrumented, rtT.Imports())
	if err != nil {
		t.Fatal(err)
	}
	rtE.BindInstance(inst)

	fx := &encoderFixture{md: md, inst: inst, em: em, tracer: tracer}
	tramps, encs := hostFuncs(rtT), hostFuncs(rtE)
	for i := range md.Hooks {
		spec := &md.Hooks[i]
		if tramps[i].NoOp {
			t.Fatalf("hook %s: tracer bound to no-op trampoline", spec.Name)
		}
		if encs[i].NoOp {
			t.Fatalf("hook %s: all-caps stream bound to no-op encoder", spec.Name)
		}
		fx.specs = append(fx.specs, spec)
		fx.tramps = append(fx.tramps, tramps[i].Fast)
		fx.encs = append(fx.encs, encs[i].Emit)
	}
	return fx
}

func TestEncoderParityWithTrampolines(t *testing.T) {
	for _, set := range paritySets(t) {
		fx := newEncoderFixture(t, set, 1<<14, Block)
		fx.tracer.Events = nil // drop the start function's events from instantiation
		for i, spec := range fx.specs {
			args := synthArgs(spec, spec.Layout().Arity)
			if err := fx.tramps[i](fx.inst, args); err != nil {
				t.Fatalf("%s: hook %s: trampoline: %v", set.name, spec.Name, err)
			}
			fx.encs[i](fx.inst, args)
		}
		fx.em.Close()

		st := analyses.NewStreamTracer()
		tbl := fx.md.EventTable()
		st.SetEventTable(tbl)
		for {
			batch, ok := fx.em.Next()
			if !ok {
				break
			}
			checkPacks(t, tbl, batch)
			streamLines(st, tbl, batch)
		}

		// The callback tracer formats location-first; both tracers share the
		// format strings, so compare line for line.
		if len(st.Lines) != len(fx.tracer.Events) {
			t.Fatalf("%s: stream decoded %d events, callbacks dispatched %d", set.name, len(st.Lines), len(fx.tracer.Events))
		}
		for i := range st.Lines {
			if st.Lines[i] != fx.tracer.Events[i] {
				t.Errorf("%s: event %d:\n  callback: %s\n  stream:   %s", set.name, i, fx.tracer.Events[i], st.Lines[i])
			}
		}
		if len(st.Lines) == 0 {
			t.Fatalf("%s: parity suite produced no events", set.name)
		}
	}
}

// TestEncoderDeadHookElision pins that hooks outside the stream capability
// set compile to elidable no-ops, exactly like dead callback hooks.
func TestEncoderDeadHookElision(t *testing.T) {
	md := paritySets(t)[0].md
	rt := New(md, struct{}{})
	rt.SetEmitter(NewEmitter(16, Drop), analysis.CapBinary)
	for i, hf := range hostFuncs(rt) {
		spec := &md.Hooks[i]
		if want := spec.Kind != analysis.KindBinary; hf.NoOp != want {
			t.Errorf("hook %s: noop = %v, want %v under CapBinary-only stream", spec.Name, hf.NoOp, want)
		}
	}
}

// TestStreamEmitZeroAllocs is the stream twin of TestDispatchZeroAllocs:
// steady-state record emission — including batch hand-off and Drop-mode
// recycling — must not allocate, for every hook kind.
func TestStreamEmitZeroAllocs(t *testing.T) {
	var dropped uint64
	for _, set := range paritySets(t) {
		fx := newEncoderFixture(t, set, 256, Drop) // small batches: exercise flush/drop inside the measurement
		for i, spec := range fx.specs {
			args := synthArgs(spec, spec.Layout().Arity)
			enc := fx.encs[i]
			allocs := testing.AllocsPerRun(200, func() {
				enc(fx.inst, args)
			})
			if allocs != 0 {
				t.Errorf("%s: hook %s: %.1f allocs/op, want 0", set.name, spec.Name, allocs)
			}
		}
		dropped += fx.em.Dropped()
	}
	if dropped == 0 {
		t.Error("no batch was dropped; the guard did not exercise the flush path")
	}
}

// TestEmitterBlockDelivery checks the lossless hand-off: a concurrent
// consumer sees every emitted record, in order, across many batch cycles.
func TestEmitterBlockDelivery(t *testing.T) {
	em := NewEmitter(64, Block)
	const n = 10_000
	got := make([]uint32, 0, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			batch, ok := em.Next()
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
	if em.Dropped() != 0 {
		t.Errorf("Block mode dropped %d events", em.Dropped())
	}
}

// TestEmitterCloseDiscardNeverBlocks pins the teardown path: with the full
// ring at capacity, a non-empty current batch, and no consumer, CloseDiscard
// must return (Close's lossless final flush would wait forever here) and
// account every event as dropped.
func TestEmitterCloseDiscardNeverBlocks(t *testing.T) {
	em := NewEmitter(4, Block)
	const n = 11 // two full batches into the ring + 3 pending in cur
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
	if em.Dropped() != n {
		t.Errorf("dropped %d events, want all %d", em.Dropped(), n)
	}
	if _, ok := em.Next(); ok {
		t.Error("Next delivered a batch after CloseDiscard")
	}
}

// TestEmitterDropBackpressure checks the lossy mode: with no consumer the
// producer never stalls, the ring's batches survive, and the overflow is
// counted.
func TestEmitterDropBackpressure(t *testing.T) {
	em := NewEmitter(8, Drop)
	const n = 1000
	for i := 0; i < n; i++ {
		em.emit(analysis.Event{Aux: uint32(i)})
	}
	em.Close()
	var got int
	for {
		batch, ok := em.Next()
		if !ok {
			break
		}
		got += len(batch)
	}
	if got == 0 {
		t.Error("drop mode delivered nothing; the in-flight batches should survive")
	}
	if em.Dropped() == 0 {
		t.Error("drop mode with no consumer dropped nothing")
	}
	if uint64(got)+em.Dropped() != n {
		t.Errorf("delivered %d + dropped %d != emitted %d", got, em.Dropped(), n)
	}
}
