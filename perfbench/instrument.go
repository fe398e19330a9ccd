package main

import (
	"fmt"
	"hash/maphash"
	"slices"
	"time"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/binary"
	"wasabi/internal/core"
	"wasabi/internal/refinterp"
	"wasabi/internal/static"
	"wasabi/internal/validate"
	"wasabi/internal/wasm"
)

// instrInput is one module the instrument family takes from bytes to
// instrumented bytes, with the reference result its outputs must reproduce.
type instrInput struct {
	name  string
	data  []byte
	entry string
	args  []uint64
	want  []uint64 // entry(args) on the original module, from the reference interpreter or Kernel.Reference
}

// instrFamily runs the two ways a module is instrumented:
//
//	(a) full hooks on a default engine, as the wasabi CLI does:
//	    Engine.InstrumentBytes(AllCaps), then CompiledAnalysis.Encode;
//	(b) instruction coverage on a WithStaticAnalysis engine with the
//	    compiled cache off: binary.Decode, InstrumentFor (block probes),
//	    then Encode.
//
// Traced ops call the layers one by one instead, in the order
// Engine.instrumentUncached uses.
type instrFamily struct {
	full     *wasabi.Engine
	coverage *wasabi.Engine
	cov      *analyses.InstructionCoverage
	covHooks analysis.HookSet // the hook set InstrumentFor derives for cov
	hseed    maphash.Seed
	hashes   map[*instrInput][2]uint64 // first outputs of (a) and (b)
	times    map[*instrInput]*opTimes
}

func newInstrFamily() (*instrFamily, error) {
	full, err := wasabi.NewEngine()
	if err != nil {
		return nil, err
	}
	coverage, err := wasabi.NewEngine(wasabi.WithStaticAnalysis(), wasabi.WithCompiledCacheLimit(0))
	if err != nil {
		return nil, err
	}
	cov := analyses.NewInstructionCoverage()
	hooks := analysis.Set(analysis.KindBlockProbe)
	if k, ok := any(cov).(analysis.BlockModeKeeper); ok {
		hooks |= k.BlockModeHooks()
	}
	return &instrFamily{
		full:     full,
		coverage: coverage,
		cov:      cov,
		covHooks: hooks,
		hseed:    maphash.MakeSeed(),
		hashes:   map[*instrInput][2]uint64{},
		times:    map[*instrInput]*opTimes{},
	}, nil
}

// instrOp is the outcome of one op: both outputs and their wall times.
type instrOp struct {
	outA, outB []byte
	a, b       time.Duration
}

// op takes x through paths (a) and (b).
func (f *instrFamily) op(b *bench, x *instrInput) (instrOp, error) {
	if b.tr != nil {
		return f.tracedOp(b, x)
	}
	var r instrOp
	t0 := time.Now()
	ca, err := f.full.InstrumentBytes(x.data, wasabi.AllCaps)
	if err != nil {
		return r, fmt.Errorf("%s: path (a): %w", x.name, err)
	}
	if r.outA, err = ca.Encode(); err != nil {
		return r, fmt.Errorf("%s: path (a) encode: %w", x.name, err)
	}
	t1 := time.Now()
	m, err := binary.Decode(x.data)
	if err != nil {
		return r, fmt.Errorf("%s: path (b) decode: %w", x.name, err)
	}
	cb, err := f.coverage.InstrumentFor(m, f.cov)
	if err != nil {
		return r, fmt.Errorf("%s: path (b): %w", x.name, err)
	}
	if r.outB, err = cb.Encode(); err != nil {
		return r, fmt.Errorf("%s: path (b) encode: %w", x.name, err)
	}
	r.a, r.b = t1.Sub(t0), time.Since(t1)
	return r, nil
}

// tracedOp is op with every layer called, and spanned, on its own.
func (f *instrFamily) tracedOp(b *bench, x *instrInput) (instrOp, error) {
	tr, op := b.tr, b.op()
	root := tr.begin("instrument.op", op, -1)
	defer tr.end(root)
	var r instrOp
	var err error

	t0 := time.Now()
	r.outA, err = f.layers(tr, op, root, x.data, "full", analysis.HookSet(wasabi.AllCaps.HookSet()))
	if err != nil {
		return r, fmt.Errorf("%s: path (a): %w", x.name, err)
	}
	t1 := time.Now()
	r.outB, err = f.layers(tr, op, root, x.data, "coverage", f.covHooks)
	if err != nil {
		return r, fmt.Errorf("%s: path (b): %w", x.name, err)
	}
	r.a, r.b = t1.Sub(t0), time.Since(t1)
	return r, nil
}

// layers runs decode, validate, (for coverage) the static plan, instrument
// and encode under one instrument.glue span, whose self time is whatever the
// path spends between the layer calls.
func (f *instrFamily) layers(tr *tracer, op int64, root int32, data []byte, path string, hooks analysis.HookSet) ([]byte, error) {
	glue := tr.begin("instrument.glue", op, root)
	defer tr.end(glue)

	s := tr.beginAlloc("binary.Decode", op, glue)
	m, err := binary.Decode(data)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("validate.Module", op, glue)
	err = validate.Module(m)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	opts := core.Options{Hooks: hooks, SkipValidation: true}
	if path == "coverage" {
		s = tr.beginAlloc("static.PlanFor", op, glue)
		opts.Plan, err = static.PlanFor(m, hooks)
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	s = tr.beginAlloc("core.Instrument."+path, op, glue)
	out, _, err := core.Instrument(m, opts)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.beginAlloc("binary.Encode."+path, op, glue)
	enc, err := binary.Encode(out)
	tr.end(s)
	return enc, err
}

// cycleStats are the figures of one cycle: every input once.
type cycleStats struct {
	ops        int
	allocBytes uint64 // allocated inside ops
	wall       time.Duration
}

// opTimes are one input's op times over a phase, ms.
type opTimes struct{ a, b []float64 }

// cycle takes every input through both paths once, checking that each
// output matches the first op's on the same input, and keeps each input's
// path times.
func (f *instrFamily) cycle(b *bench, inputs []*instrInput) cycleStats {
	var c cycleStats
	start := time.Now()
	for _, x := range inputs {
		b0, _ := heapAllocs()
		r, err := f.op(b, x)
		b1, _ := heapAllocs()
		c.allocBytes += b1 - b0
		if err == nil {
			err = f.sameOutput(x, r)
		}
		b.record(err)
		if err != nil {
			continue
		}
		c.ops++
		t := f.times[x]
		if t == nil {
			t = &opTimes{}
			f.times[x] = t
		}
		t.a = append(t.a, ms(r.a))
		t.b = append(t.b, ms(r.b))
	}
	c.wall = time.Since(start)
	return c
}

// setMetrics reports the family's throughput from each input's best op
// time over the phase's cycles (see fastest): a whole cycle's figure would
// hinge on its largest input. With own set, it also reports the latency and
// throughput of ops, for the workload whose own path this is.
func (f *instrFamily) setMetrics(b *bench, inputs []*instrInput, own bool) {
	var bytes, ta, tb float64
	var lat []float64
	for _, x := range inputs {
		t := f.times[x]
		if t == nil {
			continue
		}
		qa, qb := fastest(t.a), fastest(t.b)
		bytes += float64(len(x.data))
		ta += qa
		tb += qb
		lat = append(lat, qa+qb)
	}
	b.set("instrument_mb_per_s", bytes/1e6/(ta/1e3))
	b.set("coverage_instrument_mb_per_s", bytes/1e6/(tb/1e3))
	if own {
		b.set("result_ms_p50", quantile(lat, 0.5))
		b.set("result_ms_p90", quantile(lat, 0.9))
		b.set("results_per_s", float64(len(lat))/((ta+tb)/1e3))
	}
}

// reset forgets the op times of the previous phase.
func (f *instrFamily) reset() { f.times = map[*instrInput]*opTimes{} }

// sameOutput checks that repeated ops on one input give byte-identical
// outputs.
func (f *instrFamily) sameOutput(x *instrInput, r instrOp) error {
	h := [2]uint64{maphash.Bytes(f.hseed, r.outA), maphash.Bytes(f.hseed, r.outB)}
	prev, seen := f.hashes[x]
	if !seen {
		f.hashes[x] = h
		return nil
	}
	if h != prev {
		return fmt.Errorf("%s: output differs from the first op on the same input", x.name)
	}
	return nil
}

// instrCounts are exact counts over a workload's distinct inputs.
type instrCounts struct {
	inBytes, outBytesA  int
	hookSpecs           int
	sitesFull, sitesCov int
}

// verify takes every input through both paths once more, outside any timed
// region, and checks each output: it must match the timed ops' bytes,
// decode, validate, and reproduce the reference result in the reference
// interpreter with every hook stubbed out. A failed check fails one op.
func (f *instrFamily) verify(b *bench, inputs []*instrInput) instrCounts {
	var c instrCounts
	for _, x := range inputs {
		r, err := f.op(b, x)
		if err == nil {
			err = f.sameOutput(x, r)
		}
		var specs, sitesA, sitesB int
		if err == nil {
			specs, sitesA, err = checkOutput(r.outA, x)
		}
		if err == nil {
			_, sitesB, err = checkOutput(r.outB, x)
		}
		b.record(err)
		c.inBytes += len(x.data)
		c.outBytesA += len(r.outA)
		c.hookSpecs += specs
		c.sitesFull += sitesA
		c.sitesCov += sitesB
	}
	return c
}

// checkOutput decodes and validates an instrumented module, runs it in the
// reference interpreter, and returns its hook import and hook call-site
// counts.
func checkOutput(out []byte, x *instrInput) (specs, sites int, err error) {
	m, err := binary.Decode(out)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: output does not decode: %w", x.name, err)
	}
	if err := validate.Module(m); err != nil {
		return 0, 0, fmt.Errorf("%s: output does not validate: %w", x.name, err)
	}
	got, err := refRun(m, x.entry, x.args)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: output in the reference interpreter: %w", x.name, err)
	}
	if !slices.Equal(got, x.want) {
		return 0, 0, fmt.Errorf("%s: output returns %v, reference %v", x.name, got, x.want)
	}
	specs, sites = hookSites(m)
	return specs, sites, nil
}

// hookSites counts a module's imports from the hook namespace and the call
// instructions that target them.
func hookSites(m *wasm.Module) (specs, sites int) {
	hook := map[uint32]bool{}
	var fn uint32
	for _, imp := range m.Imports {
		if imp.Kind != wasm.ExternFunc {
			continue
		}
		if imp.Module == core.HookModule {
			hook[fn] = true
		}
		fn++
	}
	for _, f := range m.Funcs {
		for _, in := range f.Body {
			if in.Op == wasm.OpCall && hook[in.Idx] {
				sites++
			}
		}
	}
	return len(hook), sites
}

// refRun runs entry(args) of m in the reference interpreter, which shares
// no code with the production interpreter. Every function import returns
// zeros, which is what a no-op hook does.
func refRun(m *wasm.Module, entry string, args []uint64) ([]uint64, error) {
	imports := refinterp.Imports{}
	for _, imp := range m.Imports {
		if imp.Kind != wasm.ExternFunc {
			continue
		}
		ft := m.Types[imp.TypeIdx]
		results := len(ft.Results)
		if imports[imp.Module] == nil {
			imports[imp.Module] = map[string]*refinterp.HostFunc{}
		}
		imports[imp.Module][imp.Name] = &refinterp.HostFunc{
			Type: ft,
			Fn:   func([]refinterp.Value) ([]refinterp.Value, error) { return make([]refinterp.Value, results), nil },
		}
	}
	inst, err := refinterp.Instantiate(m, imports)
	if err != nil {
		return nil, err
	}
	return inst.Invoke(entry, args...)
}

// setCounts reports the instrument family's exact figures.
func (b *bench) setCounts(c instrCounts) {
	b.set("instrumented_size_ratio", float64(c.outBytesA)/float64(c.inBytes))
	b.set("core.hook_specs", float64(c.hookSpecs))
	b.set("core.hook_sites.full", float64(c.sitesFull))
	b.set("core.hook_sites.coverage", float64(c.sitesCov))
}
