package main

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

// execProgram is one module the exec family runs: a PolyBench kernel's
// kernel() or a synthetic application's main(n).
type execProgram struct {
	name    string
	mod     *wasm.Module
	entry   string
	args    []interp.Value
	imports func() interp.Imports // nil: the module imports nothing
	want    []uint64              // the reference result
}

func (p *execProgram) hostImports() interp.Imports {
	if p.imports == nil {
		return nil
	}
	return p.imports()
}

// execTarget is one program instrumented for all hooks and instantiated
// twice: once dispatching callbacks to the empty analysis, once delivering
// records through a single-consumer Block stream to a counting sink.
type execTarget struct {
	p        *execProgram
	sessions []*wasabi.Session
	cb       *interp.Instance
	st       *interp.Instance
	stream   *wasabi.Stream
	sink     *countingSink
	plain    *interp.Instance // traced runs only: the uninstrumented module

	events  uint64 // hook events per invoke, counted once in set-up
	records uint64 // stream records per invoke, counted once in set-up
	fuel    uint64 // source instructions per invoke (traced runs only)
	streams uint64 // stream-mode invokes so far, warm-up included

	// Invoke times of the phase, ms, one per pass; reset when a phase
	// starts. The traced phase alone runs plain invokes.
	cbMS, stMS, plainMS []float64
}

// execFamily holds every target of a run.
type execFamily struct {
	targets []*execTarget
}

// newExecFamily instruments and instantiates every program, counts its
// exact hook events and stream records, and warms both modes up.
func newExecFamily(b *bench, progs []*execProgram) (*execFamily, error) {
	eng, err := wasabi.NewEngine()
	if err != nil {
		return nil, err
	}
	f := &execFamily{}
	for _, p := range progs {
		t := &execTarget{p: p}
		f.targets = append(f.targets, t)
		if err := t.setup(b, eng); err != nil {
			f.close(b)
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	f.reset()
	return f, nil
}

func (t *execTarget) setup(b *bench, eng *wasabi.Engine) error {
	compiled, err := eng.Instrument(t.p.mod, wasabi.AllCaps)
	if err != nil {
		return err
	}
	open := func(a any) (*wasabi.Session, error) {
		s, err := compiled.NewSession(a)
		if err == nil {
			t.sessions = append(t.sessions, s)
		}
		return s, err
	}

	// Exact event count: one invoke under a counting analysis.
	if t.events, err = countEvents(compiled, t); err != nil {
		return err
	}

	// Exact record count: one invoke on a stream that is then closed, so
	// the consumer has seen every record when it ends.
	if t.records, err = countRecords(compiled, t.p); err != nil {
		return err
	}

	// The timed instances. The two counting invokes above warmed up both
	// delivery paths; the first timed pass touches these instances' memory
	// for the first time.
	s, err := open(&analyses.Empty{})
	if err != nil {
		return err
	}
	if t.cb, err = s.Instantiate("", t.p.hostImports()); err != nil {
		return err
	}
	if s, err = open(wasabi.StreamCaps(wasabi.AllCaps)); err != nil {
		return err
	}
	if t.stream, err = s.Stream(); err != nil {
		return err
	}
	t.sink = startCounting(t.stream)
	if t.st, err = s.Instantiate("", t.p.hostImports()); err != nil {
		return err
	}

	if b.traced {
		if t.plain, err = interp.Instantiate(t.p.mod, t.p.hostImports()); err != nil {
			return err
		}
		metered, err := interp.InstantiateWith(interp.NewRegistry(), "", t.p.mod, t.p.hostImports(), interp.Config{Guarded: true})
		if err != nil {
			return err
		}
		if err := t.invoke(metered); err != nil {
			return err
		}
		t.fuel = math.MaxInt64 - metered.Fuel()
	}
	return nil
}

// countEvents runs t's program once under a counting analysis and returns
// the hook events it saw.
func countEvents(compiled *wasabi.CompiledAnalysis, t *execTarget) (uint64, error) {
	counter := &hookCounter{}
	s, err := compiled.NewSession(counter)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	inst, err := s.Instantiate("", t.p.hostImports())
	if err != nil {
		return 0, err
	}
	if err := t.invoke(inst); err != nil {
		return 0, err
	}
	return counter.n, nil
}

// countRecords runs p once on a fresh stream and returns the records the
// consumer received.
func countRecords(compiled *wasabi.CompiledAnalysis, p *execProgram) (uint64, error) {
	s, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
	if err != nil {
		return 0, err
	}
	defer s.Close()
	st, err := s.Stream()
	if err != nil {
		return 0, err
	}
	sink := startCounting(st)
	inst, err := s.Instantiate("", p.hostImports())
	if err == nil {
		_, err = inst.Invoke(p.entry, p.args...)
	}
	st.Close()
	<-sink.done
	if err != nil {
		return 0, err
	}
	return sink.records.Load(), nil
}

// invoke runs the program's entry on inst and checks the result against the
// reference.
func (t *execTarget) invoke(inst *interp.Instance) error {
	res, err := inst.Invoke(t.p.entry, t.p.args...)
	if err != nil {
		return fmt.Errorf("%s: %w", t.p.name, err)
	}
	if !slices.Equal(res, t.p.want) {
		return fmt.Errorf("%s: returned %v, reference %v", t.p.name, res, t.p.want)
	}
	return nil
}

// Delivery modes of an invoke; plain runs the uninstrumented module.
const (
	modeCallback = iota
	modeStream
	modePlain
)

var modeSpans = [...]string{"interp.Invoke.callback", "interp.Invoke.stream", "interp.Invoke.plain"}

// pass invokes every target once in each delivery mode; parity alternates
// which mode goes first. A traced pass adds one uninstrumented invoke. The
// pass allocates nothing itself (reset sized the time slices), so the
// allocation it sees is the program's. It returns the time spent in
// plain invokes.
func (f *execFamily) pass(b *bench, parity int) (plain time.Duration) {
	for _, t := range f.targets {
		modes := [3]int{modeCallback, modeStream, modePlain}
		if parity%2 == 1 {
			modes[0], modes[1] = modeStream, modeCallback
		}
		n := 2
		if b.tr != nil {
			n = 3
		}
		for _, mode := range modes[:n] {
			inst := t.cb
			switch mode {
			case modeStream:
				inst = t.st
				t.streams++
				t.sink.producing(true)
			case modePlain:
				inst = t.plain
			}
			s := b.tr.begin(modeSpans[mode], b.op(), -1)
			t0 := time.Now()
			err := t.invoke(inst)
			d := time.Since(t0)
			b.tr.end(s)
			b.record(err)
			switch mode {
			case modeCallback:
				t.cbMS = append(t.cbMS, ms(d))
			case modeStream:
				t.sink.producing(false)
				t.stMS = append(t.stMS, ms(d))
			case modePlain:
				plain += d
				t.plainMS = append(t.plainMS, ms(d))
			}
		}
	}
	return plain
}

// reset empties the targets' invoke times, keeping room for a phase's
// passes so that appending allocates nothing.
func (f *execFamily) reset() {
	for _, t := range f.targets {
		if t.cbMS == nil {
			t.cbMS, t.stMS, t.plainMS = make([]float64, 0, 1024), make([]float64, 0, 1024), make([]float64, 0, 1024)
		}
		t.cbMS, t.stMS, t.plainMS = t.cbMS[:0], t.stMS[:0], t.plainMS[:0]
	}
}

// setMetrics reports the family's delivery rates from each target's best
// invoke time over the phase's passes (see fastest): a pass's figure would
// hinge on a few invokes (two kernels take half of a pass, and its median is
// one invoke), where each target's time rests on every pass. With stream
// set it reports the stream rate too, and with own set the latency and
// throughput of invokes, for the workload whose own path this is.
func (f *execFamily) setMetrics(b *bench, own, stream bool) {
	var events, records, cbMS, stMS float64
	var lat []float64
	for _, t := range f.targets {
		cb, st := fastest(t.cbMS), fastest(t.stMS)
		events += float64(t.events)
		records += float64(t.records)
		cbMS += cb
		stMS += st
		lat = append(lat, cb, st)
	}
	b.set("callback_events_per_s", events/cbMS*1e3)
	if stream {
		b.set("stream_events_per_s", records/stMS*1e3)
	}
	if own {
		b.set("result_ms_p50", quantile(lat, 0.5))
		b.set("result_ms_p90", quantile(lat, 0.9))
		b.set("results_per_s", float64(len(lat))/(cbMS+stMS)*1e3)
	}
}

// close ends every stream, waits for its consumer, checks that it received
// exactly the records its invokes produced, and closes the sessions.
func (f *execFamily) close(b *bench) {
	for _, t := range f.targets {
		if t.stream != nil {
			t.stream.Close()
			<-t.sink.done
			if got, want := t.sink.records.Load(), t.streams*t.records; got != want {
				b.record(fmt.Errorf("%s: stream delivered %d records, want %d", t.p.name, got, want))
			}
			if n := t.stream.Dropped(); n > 0 {
				b.record(fmt.Errorf("%s: stream dropped %d records", t.p.name, n))
			}
		}
		for _, s := range t.sessions {
			s.Close()
		}
	}
}

// streamFigures returns the counting sinks' records per batch and the share
// of the consumers' time during stream-mode invokes spent waiting in Next.
func (f *execFamily) streamFigures() (perBatch, waitFrac float64) {
	var recs, batches uint64
	var wait, busy int64
	for _, t := range f.targets {
		recs += t.sink.records.Load()
		batches += t.sink.batches.Load()
		wait += t.sink.waitNS.Load()
		busy += t.sink.busyNS.Load()
	}
	return float64(recs) / float64(batches), float64(wait) / float64(wait+busy)
}

// countingSink is the stream consumer: it counts records on its own
// goroutine, and times its Next calls and its own work while a stream-mode
// invoke is producing.
type countingSink struct {
	records, batches atomic.Uint64
	waitNS, busyNS   atomic.Int64
	since            atomic.Int64 // start of the producing invoke, 0 when idle
	done             chan struct{}
}

func startCounting(st *wasabi.Stream) *countingSink {
	c := &countingSink{done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for {
			t0 := time.Now().UnixNano()
			batch, ok := st.Next()
			t1 := time.Now().UnixNano()
			if !ok {
				return
			}
			c.records.Add(uint64(len(batch)))
			c.batches.Add(1)
			t2 := time.Now().UnixNano()
			if since := c.since.Load(); since != 0 {
				c.waitNS.Add(t1 - max(t0, since))
				c.busyNS.Add(t2 - t1)
			}
		}
	}()
	return c
}

// producing marks the start and end of a stream-mode invoke.
func (c *countingSink) producing(on bool) {
	if on {
		c.since.Store(time.Now().UnixNano())
	} else {
		c.since.Store(0)
	}
}

// hookCounter counts every high-level hook event.
type hookCounter struct{ n uint64 }

func (c *hookCounter) Nop(wasabi.Location)                             { c.n++ }
func (c *hookCounter) Unreachable(wasabi.Location)                     { c.n++ }
func (c *hookCounter) If(wasabi.Location, bool)                        { c.n++ }
func (c *hookCounter) Br(wasabi.Location, wasabi.BranchTarget)         { c.n++ }
func (c *hookCounter) BrIf(wasabi.Location, wasabi.BranchTarget, bool) { c.n++ }
func (c *hookCounter) BrTable(wasabi.Location, []wasabi.BranchTarget, wasabi.BranchTarget, uint32) {
	c.n++
}
func (c *hookCounter) Begin(wasabi.Location, wasabi.BlockKind)                   { c.n++ }
func (c *hookCounter) End(wasabi.Location, wasabi.BlockKind, wasabi.Location)    { c.n++ }
func (c *hookCounter) Const(wasabi.Location, wasabi.Value)                       { c.n++ }
func (c *hookCounter) Drop(wasabi.Location, wasabi.Value)                        { c.n++ }
func (c *hookCounter) Select(wasabi.Location, bool, wasabi.Value, wasabi.Value)  { c.n++ }
func (c *hookCounter) Unary(wasabi.Location, string, wasabi.Value, wasabi.Value) { c.n++ }
func (c *hookCounter) Binary(wasabi.Location, string, wasabi.Value, wasabi.Value, wasabi.Value) {
	c.n++
}
func (c *hookCounter) Local(wasabi.Location, string, uint32, wasabi.Value)        { c.n++ }
func (c *hookCounter) Global(wasabi.Location, string, uint32, wasabi.Value)       { c.n++ }
func (c *hookCounter) Load(wasabi.Location, string, wasabi.MemArg, wasabi.Value)  { c.n++ }
func (c *hookCounter) Store(wasabi.Location, string, wasabi.MemArg, wasabi.Value) { c.n++ }
func (c *hookCounter) MemorySize(wasabi.Location, uint32)                         { c.n++ }
func (c *hookCounter) MemoryGrow(wasabi.Location, uint32, uint32)                 { c.n++ }
func (c *hookCounter) CallPre(wasabi.Location, int, []wasabi.Value, int64)        { c.n++ }
func (c *hookCounter) CallPost(wasabi.Location, []wasabi.Value)                   { c.n++ }
func (c *hookCounter) Return(wasabi.Location, []wasabi.Value)                     { c.n++ }
func (c *hookCounter) Start(wasabi.Location)                                      { c.n++ }
