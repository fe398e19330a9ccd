package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"wasabi/internal/binary"
	"wasabi/internal/interp"
	"wasabi/internal/polybench"
	"wasabi/internal/synthapp"
	"wasabi/internal/wasm"
)

// Every workload reports every end-to-end metric, each measured on the
// workload's own inputs. A round runs the workload's own path (its timed
// window) and then one slice of each other metric family (companions), so
// that every figure is sampled across the whole phase.

// instrumentLadder fixes the sizes of the instrument workload's binaries so
// that every seed weighs the same mix of small and large inputs; the seed
// draws their code.
var instrumentLadder = []int{160 << 10, 320 << 10, 640 << 10, 1280 << 10}

// Every kernel runs at problem size kernelN, where one invoke takes
// milliseconds. Invoke times grow with n^3 or n^4, so drawing n per seed
// would let the seed, not the program, move the latency metrics: the seed
// draws the order in which the kernels run.
const (
	kernelN   = 20
	synthMinN = 32
	synthMaxN = 128
)

// synthModule generates a synthetic application of about size bytes. The
// seed draws its code; the table size, helper pool and signature width are
// fixed so that every seed exercises the same kinds of work.
func synthModule(r *rng, size int) (*wasm.Module, []byte, synthapp.Config, error) {
	cfg := synthapp.Config{
		TargetBytes:  size,
		Seed:         r.next(),
		TableSize:    64,
		Helpers:      40,
		MaxExtraArgs: 8,
	}
	m := synthapp.Generate(cfg)
	data, err := binary.Encode(m)
	return m, data, cfg, err
}

// synthInputs generates one synthetic application per size, each with its
// own seeded code and main(n) argument, and its reference result from the
// reference interpreter.
func synthInputs(b *bench, stream string, sizes []int) ([]*instrInput, error) {
	var inputs []*instrInput
	var params []map[string]any
	for i, size := range sizes {
		r := newRNG(b.seed, fmt.Sprintf("%s/%d", stream, i))
		m, data, cfg, err := synthModule(r, size)
		if err != nil {
			return nil, err
		}
		n := r.between(synthMinN, synthMaxN)
		args := []uint64{uint64(uint32(n))}
		want, err := refRun(m, "main", args)
		if err != nil {
			return nil, fmt.Errorf("reference run of synthetic app %d: %w", i, err)
		}
		inputs = append(inputs, &instrInput{
			name:  fmt.Sprintf("synth%d", i),
			data:  data,
			entry: "main",
			args:  args,
			want:  want,
		})
		params = append(params, map[string]any{"name": inputs[i].name, "bytes": len(data), "seed": cfg.Seed, "n": n})
	}
	b.param(stream+"_inputs", params)
	return inputs, nil
}

// synthProgram decodes an input for execution.
func synthProgram(x *instrInput) (*execProgram, error) {
	m, err := binary.Decode(x.data)
	if err != nil {
		return nil, err
	}
	args := make([]interp.Value, len(x.args))
	copy(args, x.args)
	return &execProgram{name: x.name, mod: m, entry: x.entry, args: args, want: x.want}, nil
}

// synthPrograms is synthProgram for several inputs.
func synthPrograms(inputs []*instrInput) ([]*execProgram, error) {
	var progs []*execProgram
	for _, x := range inputs {
		p, err := synthProgram(x)
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	return progs, nil
}

// runInstrumentWorkload reproduces Table 5 and Fig 8: seeded synthetic
// applications taken from bytes to instrumented bytes; nothing executes in
// its timed windows. Companion: both delivery modes on the two smallest
// binaries.
func runInstrumentWorkload(b *bench) error {
	type state struct {
		f      *instrFamily
		inputs []*instrInput
		exec   *execFamily
	}
	s, err := setup(b, func() (*state, error) {
		inputs, err := synthInputs(b, "instrument", instrumentLadder)
		if err != nil {
			return nil, err
		}
		f, err := newInstrFamily()
		if err != nil {
			return nil, err
		}
		if _, err := f.op(b, inputs[0]); err != nil { // warm-up
			return nil, err
		}
		progs, err := synthPrograms(inputs[:2])
		if err != nil {
			return nil, err
		}
		exec, err := newExecFamily(b, progs)
		if err != nil {
			return nil, err
		}
		return &state{f: f, inputs: inputs, exec: exec}, nil
	}, func(s *state) { s.exec.close(b) })
	if err != nil {
		return err
	}

	b.phases(func(i int, fig figures) (int, time.Duration) {
		if i == 0 {
			s.f.reset()
			s.exec.reset()
		}
		c := s.f.cycle(b, s.inputs)
		fig.amount("alloc_mb_per_op", float64(c.allocBytes)/float64(len(s.inputs))/1e6)
		// The companion starts on a collected heap, so that no collection
		// of the cycle's garbage runs during its invokes.
		runtime.GC()
		s.exec.pass(b, i)
		return c.ops, c.wall
	})
	b.set("retained_mb", retainedMB())
	s.f.setMetrics(b, s.inputs, true)
	s.exec.setMetrics(b, false, true)
	b.setCounts(s.f.verify(b, s.inputs))
	s.exec.close(b)
	return nil
}

// kernelInputs builds every kernel at kernelN, in the order the seed draws.
func kernelInputs(b *bench) ([]*execProgram, []*instrInput, error) {
	r := newRNG(b.seed, "kernels")
	all := polybench.Kernels()
	var progs []*execProgram
	var inputs []*instrInput
	var params []string
	for _, i := range r.perm(len(all)) {
		k := all[i]
		n := int32(kernelN)
		m := k.Module(n)
		data, err := binary.Encode(m)
		if err != nil {
			return nil, nil, err
		}
		want := []uint64{math.Float64bits(k.Reference(n))}
		name := fmt.Sprintf("%s/n=%d", k.Name, n)
		progs = append(progs, &execProgram{
			name: name, mod: m, entry: "kernel", want: want,
			imports: func() interp.Imports { return polybench.HostImports(nil) },
		})
		inputs = append(inputs, &instrInput{name: name, data: data, entry: "kernel", want: want})
		params = append(params, name)
	}
	b.param("kernels", params)
	return progs, inputs, nil
}

// runKernelsWorkload reproduces the Fig 9 "all" row plus event streams:
// seeded PolyBench kernels, instrumented and instantiated in set-up, invoked
// in alternating delivery modes; nothing is decoded, instrumented or
// compiled in its timed windows. Companion: both instrument paths on the
// kernel binaries.
func runKernelsWorkload(b *bench) error {
	type state struct {
		f      *execFamily
		inputs []*instrInput
		instr  *instrFamily
	}
	s, err := setup(b, func() (*state, error) {
		progs, inputs, err := kernelInputs(b)
		if err != nil {
			return nil, err
		}
		f, err := newExecFamily(b, progs)
		if err != nil {
			return nil, err
		}
		instr, err := newInstrFamily()
		if err != nil {
			f.close(b)
			return nil, err
		}
		return &state{f: f, inputs: inputs, instr: instr}, nil
	}, func(s *state) { s.f.close(b) })
	if err != nil {
		return err
	}

	invokes := 2 * len(s.f.targets)
	b.phases(func(i int, fig figures) (int, time.Duration) {
		if i == 0 {
			s.f.reset()
			s.instr.reset()
		}
		a0, _ := heapAllocs()
		start := time.Now()
		plain := s.f.pass(b, i)
		wall := time.Since(start)
		a1, _ := heapAllocs()
		fig.amount("alloc_mb_per_op", float64(a1-a0)/float64(invokes)/1e6)

		s.instr.cycle(b, s.inputs)
		// The kernels allocate next to nothing; collect the companion's
		// garbage now, so that no collection runs during the next pass.
		runtime.GC()
		return invokes, wall - plain
	})
	b.set("retained_mb", retainedMB())
	s.f.setMetrics(b, true, true)
	s.instr.setMetrics(b, s.inputs, false)
	if b.traced {
		b.setKernelLayers(s.f)
	}
	s.f.close(b)
	b.setCounts(s.instr.verify(b, s.inputs))
	return nil
}

// setKernelLayers reports the traced kernels run's exact counts, the Fig 9
// ratios (one row per kernel, mean invoke times of the traced phase), and
// the per-event dispatch costs.
func (b *bench) setKernelLayers(f *execFamily) {
	var events, records, fuel, cbExtra, stExtra float64
	var cbX, stX []float64
	b.row("%-22s %10s %10s %9s %9s %9s %7s %7s", "kernel", "events", "records", "plain_ms", "cb_ms", "stream_ms", "cb_x", "st_x")
	for _, t := range f.targets {
		events += float64(t.events)
		records += float64(t.records)
		fuel += float64(t.fuel)
		plain, cb, st := mean(t.plainMS), mean(t.cbMS), mean(t.stMS)
		cbX = append(cbX, cb/plain)
		stX = append(stX, st/plain)
		cbExtra += (cb - plain) * 1e6
		stExtra += (st - plain) * 1e6
		b.row("%-22s %10d %10d %9.3f %9.3f %9.3f %7.2f %7.2f", t.p.name, t.events, t.records,
			plain, cb, st, cb/plain, st/plain)
	}
	b.set("kernels.events_per_pass", events)
	b.set("kernels.fuel_per_pass", fuel)
	b.set("kernels.callback_overhead_x", geomean(cbX))
	b.set("kernels.stream_overhead_x", geomean(stX))
	b.set("runtime.trampoline.ns_per_event", cbExtra/events)
	b.set("runtime.encoder.ns_per_record", stExtra/records)
	perBatch, waitFrac := f.streamFigures()
	b.set("wasabi.Stream.records_per_batch", perBatch)
	b.set("wasabi.Stream.Next.wait_frac", waitFrac)
	var dropped uint64
	for _, t := range f.targets {
		dropped += t.stream.Dropped()
	}
	b.set("wasabi.Stream.dropped", float64(dropped))
}
