package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/binary"
	"wasabi/internal/builder"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/polybench"
	"wasabi/internal/static"
	"wasabi/internal/synthapp"
	"wasabi/internal/wasm"
)

// BenchResult is one benchmark's machine-readable record.
type BenchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// BenchReport is the schema of BENCH_instrument.json: the recorded seed
// baseline (fixed once, from the pre-optimization tree) and the current
// tree's numbers, so the perf trajectory is machine-readable across PRs.
type BenchReport struct {
	// SeedBaseline holds the seed-tree numbers for the headline benchmark,
	// measured before the allocation-free instrumentation pipeline landed.
	SeedBaseline map[string]BenchResult `json:"seed_baseline"`
	Current      map[string]BenchResult `json:"current"`
	// References freezes named measurement snapshots taken right before a
	// specific optimization landed, so its effect stays machine-readable
	// without re-running old trees.
	References map[string]map[string]BenchResult `json:"references,omitempty"`
	// ParallelScaling is a frozen record of an instrumentation worker sweep
	// taken on a 1-core machine; no mode measures it, so writeBenchJSON
	// carries it over from the file it rewrites.
	ParallelScaling json.RawMessage `json:"parallel_scaling,omitempty"`
}

// Fig9Hook is one per-hook row of BENCH_fig9.json: absolute time and the
// ratio to the uninstrumented baseline (the quantity Figure 9 plots).
type Fig9Hook struct {
	NsPerOp float64 `json:"ns_per_op"`
	Ratio   float64 `json:"ratio"`
}

// Fig9Reference freezes a previous PR's headline interpreter numbers so a
// regression is detectable without re-running old trees.
type Fig9Reference struct {
	BaselineNsPerOp float64 `json:"baseline_ns_per_op"`
	BinaryRatio     float64 `json:"binary_ratio"`
	AllRatio        float64 `json:"all_ratio"`
}

// CallReturnAllocs records the borrowed-buffer guard for the slice-carrying
// call/return hooks: allocations per invoke of a call-heavy workload with an
// analysis implementing CallPre/CallPost/Return, against the uninstrumented
// baseline. PerHookCall is the derived allocations per dispatched hook call
// — 0 under the engine-pooled borrowed-buffer convention (before it, every
// call_pre/call_post/return with a payload allocated its value vector).
type CallReturnAllocs struct {
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op"`
	HookedAllocsPerOp   float64 `json:"hooked_allocs_per_op"`
	HookCallsPerOp      int64   `json:"hook_calls_per_op"`
	PerHookCall         float64 `json:"per_hook_call"`
}

// StreamBench records the event-stream surface on the Fig 9 workload: how
// many hook events per second the packed-record pipeline delivers to a
// consumer goroutine at the default batch size, plus the batch-size sweep
// (the batching/amortization curve). CI's fig9-smoke guards EventsPerSec
// against >2x regression.
type StreamBench struct {
	EventsPerSec    float64            `json:"events_per_sec"`
	NsPerOp         float64            `json:"ns_per_op"`
	EventsPerInvoke int64              `json:"events_per_invoke"`
	BatchSize       int                `json:"batch_size"`
	BatchSweep      map[string]float64 `json:"batch_sweep_events_per_sec,omitempty"`
}

// CoverageBench records instruction coverage on the Fig 9 kernel before and
// after block-probe elision: per-instruction Begin/End/hook dispatch (plain
// engine) vs one block_probe call per CFG-reachable basic block
// (WithStaticAnalysis). HookSites counts the emitted hook call sites in each
// instrumented module; the ratios are relative to the uninstrumented
// baseline, Speedup is per-instr time over block-probe time.
type CoverageBench struct {
	PerInstrNsPerOp   float64 `json:"per_instr_ns_per_op"`
	PerInstrRatio     float64 `json:"per_instr_ratio"`
	PerInstrHookSites int     `json:"per_instr_hook_sites"`
	BlockNsPerOp      float64 `json:"block_ns_per_op"`
	BlockRatio        float64 `json:"block_ratio"`
	BlockHookSites    int     `json:"block_hook_sites"`
	Speedup           float64 `json:"speedup"`
}

// Fig9Report is the schema of BENCH_fig9.json: interpreter progress tracked
// like instrumentation progress (BENCH_instrument.json), one file per
// concern. CI's bench smoke fails when BaselineNsPerOp regresses >2x against
// the recorded file.
type Fig9Report struct {
	BaselineNsPerOp float64             `json:"baseline_ns_per_op"`
	Hooks           map[string]Fig9Hook `json:"hooks"`
	// CallReturnAllocs is the 0-allocs/op guard for slice-carrying hook
	// dispatch (borrowed, engine-pooled value vectors).
	CallReturnAllocs CallReturnAllocs `json:"call_return_allocs"`
	// Stream records the event-stream pipeline's delivery rate.
	Stream StreamBench `json:"stream"`
	// Coverage records instruction coverage before/after block-probe
	// elision (the static-analysis engine's headline runtime win).
	Coverage CoverageBench `json:"coverage"`
	// Fuel records metered vs unmetered execution (the containment guard
	// cost, and the zero-overhead-when-disabled reference CI guards at 5%).
	Fuel FuelBench `json:"fuel"`
	// Fanout records the event fabric's broadcast scaling and the record
	// sink's write/replay throughput (the -fanout mode refreshes just this
	// section).
	Fanout       FanoutBench   `json:"fanout"`
	PR1Reference Fig9Reference `json:"pr1_reference"`
	// PR2Reference freezes the generic-dispatch (Kind-switch + argReader)
	// numbers the per-spec trampolines replaced.
	PR2Reference Fig9Reference `json:"pr2_reference"`
	// PR3Reference freezes the one-shot-API numbers (per-spec trampolines,
	// fresh value vector per slice-carrying hook call) the engine-pooled
	// borrowed buffers replaced.
	PR3Reference Fig9Reference `json:"pr3_reference"`
}

// seedBaseline records the pre-optimization numbers of the headline Table 5
// benchmark (1 MiB synthetic app, full instrumentation): 2.4 s/op at
// 0.35 MB/s with 676 MB and 1.77 M allocations per op.
var seedBaseline = map[string]BenchResult{
	"Table5_InstrumentApp": {
		NsPerOp:     2.4e9,
		MBPerS:      0.35,
		BytesPerOp:  676608872,
		AllocsPerOp: 1769776,
	},
}

// pr1Reference records the interpreter numbers after PR 1 (frame arena, no
// threaded code yet): the baseline Fig 9 ratios the tentpole must beat.
var pr1Reference = Fig9Reference{
	BaselineNsPerOp: 921420,
	BinaryRatio:     5.98,
	AllRatio:        11.25,
}

// pr2Reference records the numbers after PR 2 (threaded-code interpreter,
// generic Kind-switch hook dispatch), measured before the per-spec compiled
// trampolines + zero-copy host calls landed.
var pr2Reference = Fig9Reference{
	BaselineNsPerOp: 513672,
	BinaryRatio:     5.15,
	AllRatio:        10.32,
}

// pr3Reference records the interpreter numbers after PR 3 (per-spec compiled
// trampolines + zero-copy stack-window host calls), measured before the
// engine-centric API v2 with borrowed value-vector buffers landed.
var pr3Reference = Fig9Reference{
	BaselineNsPerOp: 509709,
	BinaryRatio:     3.78,
	AllRatio:        7.62,
}

// pr3RemapBefore records Table5_InstrumentApp right before the index-remap
// pass was restricted to recorded call sites (PR 3). Like every frozen
// reference in this file, it was measured on the runner that produced the
// committed "current" numbers at the time — a regenerated report is only a
// same-machine before/after comparison if regenerated on comparable
// hardware, which is why CI's refreshed JSONs are uploaded as informational
// artifacts rather than committed directly.
var pr3RemapBefore = map[string]BenchResult{
	"Table5_InstrumentApp": {
		NsPerOp:     64740268,
		MBPerS:      13.02,
		BytesPerOp:  62686694,
		AllocsPerOp: 32698,
	},
}

func toResult(r testing.BenchmarkResult, bytesProcessed int64) BenchResult {
	br := BenchResult{
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if bytesProcessed > 0 && r.NsPerOp() > 0 {
		br.MBPerS = float64(bytesProcessed) / 1e6 / (float64(r.NsPerOp()) / 1e9)
	}
	return br
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)
	return nil
}

// mergeSection rewrites one top-level section of an existing report file,
// leaving every other section byte-for-byte intact (decoded as raw
// messages). The refresh contract of the single-section modes (-fuel,
// -fanout): a section can be re-measured on a quiet machine
// without re-running the whole suite.
func mergeSection(path, section string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("-%s updates an existing report: %w", section, err)
	}
	var report map[string]json.RawMessage
	if err := json.Unmarshal(data, &report); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	report[section] = raw
	return writeJSONFile(path, report)
}

// fig9HookSets are the per-hook instrumentations measured for
// BENCH_fig9.json, mirroring BenchmarkFig9_PerHook.
var fig9HookSets = []struct {
	name string
	set  analysis.HookSet
}{
	{"nop", analysis.Set(analysis.KindNop)},
	{"load", analysis.Set(analysis.KindLoad)},
	{"store", analysis.Set(analysis.KindStore)},
	{"const", analysis.Set(analysis.KindConst)},
	{"binary", analysis.Set(analysis.KindBinary)},
	{"local", analysis.Set(analysis.KindLocal)},
	{"begin", analysis.Set(analysis.KindBegin)},
	{"end", analysis.Set(analysis.KindEnd)},
	{"all", analysis.AllHooks},
}

// instrumentHookNames selects which fig9HookSets rows are mirrored into
// BENCH_instrument.json (its historical schema).
var instrumentHookNames = map[string]bool{"load": true, "binary": true, "all": true}

// writeBenchJSON runs the Table 5 / Figure 9 benchmarks via
// testing.Benchmark and writes BENCH_instrument.json (instrPath) and/or
// BENCH_fig9.json (fig9Path). Shared measurements are taken once.
func writeBenchJSON(instrPath, fig9Path string) error {
	gemm, ok := polybench.ByName("gemm")
	if !ok {
		return fmt.Errorf("gemm kernel missing")
	}
	gm := gemm.Module(16)
	gemmBytes, err := binary.Encode(gm)
	if err != nil {
		return err
	}

	cur := map[string]BenchResult{}
	if instrPath != "" {
		app := synthapp.Generate(synthapp.Config{TargetBytes: 1 << 20, Seed: 11})
		appBytes, err := binary.Encode(app)
		if err != nil {
			return err
		}

		fmt.Fprintln(os.Stderr, "bench: Table5_InstrumentPolyBench")
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Instrument(gm, core.Options{Hooks: analysis.AllHooks, SkipValidation: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
		cur["Table5_InstrumentPolyBench"] = toResult(r, int64(len(gemmBytes)))

		fmt.Fprintln(os.Stderr, "bench: Table5_InstrumentApp")
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Instrument(app, core.Options{Hooks: analysis.AllHooks, SkipValidation: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
		cur["Table5_InstrumentApp"] = toResult(r, int64(len(appBytes)))

		fmt.Fprintln(os.Stderr, "bench: Table5_InstrumentAppStatic")
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan, err := static.PlanFor(app, analysis.AllHooks)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := core.Instrument(app, core.Options{Hooks: analysis.AllHooks, SkipValidation: true, Plan: plan}); err != nil {
					b.Fatal(err)
				}
			}
		})
		cur["Table5_InstrumentAppStatic"] = toResult(r, int64(len(appBytes)))
	}

	fmt.Fprintln(os.Stderr, "bench: Fig9_Baseline")
	inst, err := interp.Instantiate(gm, polybench.HostImports(nil))
	if err != nil {
		return err
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := inst.Invoke("kernel"); err != nil {
				b.Fatal(err)
			}
		}
	})
	baseline := toResult(r, 0)
	cur["Fig9_Baseline"] = baseline

	engine, err := wasabi.NewEngine()
	if err != nil {
		return err
	}
	hooks := map[string]Fig9Hook{}
	for _, hook := range fig9HookSets {
		if fig9Path == "" && !instrumentHookNames[hook.name] {
			continue
		}
		fmt.Fprintf(os.Stderr, "bench: Fig9_PerHook/%s\n", hook.name)
		compiled, err := engine.InstrumentHooks(gm, hook.set)
		if err != nil {
			return err
		}
		sess, err := compiled.NewSession(&analyses.Empty{})
		if err != nil {
			return err
		}
		hinst, err := sess.Instantiate("", polybench.HostImports(nil))
		if err != nil {
			return err
		}
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hinst.Invoke("kernel"); err != nil {
					b.Fatal(err)
				}
			}
		})
		res := toResult(r, 0)
		if instrumentHookNames[hook.name] {
			cur["Fig9_PerHook/"+hook.name] = res
		}
		hooks[hook.name] = Fig9Hook{NsPerOp: res.NsPerOp, Ratio: res.NsPerOp / baseline.NsPerOp}
	}

	if instrPath != "" {
		var prev BenchReport
		if data, err := os.ReadFile(instrPath); err == nil {
			_ = json.Unmarshal(data, &prev) // an unreadable old report just carries nothing over
		}
		report := BenchReport{
			SeedBaseline:    seedBaseline,
			Current:         cur,
			References:      map[string]map[string]BenchResult{"pr3_remap_before": pr3RemapBefore},
			ParallelScaling: prev.ParallelScaling,
		}
		if err := writeJSONFile(instrPath, &report); err != nil {
			return err
		}
	}
	if fig9Path != "" {
		fmt.Fprintln(os.Stderr, "bench: Coverage")
		covBench, err := measureCoverageBench(gm, baseline.NsPerOp)
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "bench: CallReturnAllocs")
		crAllocs, err := measureCallReturnAllocs(engine)
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "bench: Stream")
		streamBench, err := measureStreamBench(engine)
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "bench: Fuel")
		fuelBench, err := measureFuelBench()
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "bench: Fanout")
		fanoutBench, err := measureFanoutBench(engine)
		if err != nil {
			return err
		}
		report := Fig9Report{
			BaselineNsPerOp:  baseline.NsPerOp,
			Hooks:            hooks,
			CallReturnAllocs: crAllocs,
			Stream:           streamBench,
			Coverage:         covBench,
			Fuel:             fuelBench,
			Fanout:           fanoutBench,
			PR1Reference:     pr1Reference,
			PR2Reference:     pr2Reference,
			PR3Reference:     pr3Reference,
		}
		if err := writeJSONFile(fig9Path, &report); err != nil {
			return err
		}
	}
	return nil
}

// countHookCallSites counts OpCall instructions targeting a hook import in
// an instrumented module (the number of emitted hook call sites).
func countHookCallSites(c *wasabi.CompiledAnalysis) int {
	md := c.Metadata()
	lo, hi := uint32(md.NumImportedFuncs), uint32(md.NumImportedFuncs+len(md.Hooks))
	n := 0
	m := c.Module()
	for di := range m.Funcs {
		for _, ins := range m.Funcs[di].Body {
			if ins.Op == wasm.OpCall && ins.Idx >= lo && ins.Idx < hi {
				n++
			}
		}
	}
	return n
}

// measureCoverageBench runs the gemm kernel under instruction coverage both
// ways — per-instruction hooks (plain engine) and block probes
// (WithStaticAnalysis) — and records times, hook-site counts, and ratios
// against the uninstrumented baseline.
func measureCoverageBench(gm *wasm.Module, baselineNs float64) (CoverageBench, error) {
	run := func(eng *wasabi.Engine) (float64, int, error) {
		ca, err := eng.InstrumentFor(gm, analyses.NewInstructionCoverage())
		if err != nil {
			return 0, 0, err
		}
		sess, err := ca.NewSession(analyses.NewInstructionCoverage())
		if err != nil {
			return 0, 0, err
		}
		inst, err := sess.Instantiate("", polybench.HostImports(nil))
		if err != nil {
			return 0, 0, err
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := inst.Invoke("kernel"); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(r.NsPerOp()), countHookCallSites(ca), nil
	}

	plainEng, err := wasabi.NewEngine()
	if err != nil {
		return CoverageBench{}, err
	}
	staticEng, err := wasabi.NewEngine(wasabi.WithStaticAnalysis())
	if err != nil {
		return CoverageBench{}, err
	}
	perInstrNs, perInstrSites, err := run(plainEng)
	if err != nil {
		return CoverageBench{}, err
	}
	blockNs, blockSites, err := run(staticEng)
	if err != nil {
		return CoverageBench{}, err
	}
	return CoverageBench{
		PerInstrNsPerOp:   perInstrNs,
		PerInstrRatio:     perInstrNs / baselineNs,
		PerInstrHookSites: perInstrSites,
		BlockNsPerOp:      blockNs,
		BlockRatio:        blockNs / baselineNs,
		BlockHookSites:    blockSites,
		Speedup:           perInstrNs / blockNs,
	}, nil
}

// callHeavyModule builds main(n): a loop of n calls to a callee with an
// (i32, i64) -> i64 signature, so every call_pre/call_post/return hook
// carries a value vector (the i64 exercises the split/join path too).
func callHeavyModule() *wasm.Module {
	b := builder.New()
	callee := b.Func("callee", builder.V(wasm.I32, wasm.I64), builder.V(wasm.I64))
	callee.Get(1).I64(3).Op(wasm.OpI64Add)
	callee.Done()
	f := b.Func("main", builder.V(wasm.I32), builder.V(wasm.I64))
	i := f.Local(wasm.I32)
	acc := f.Local(wasm.I64)
	f.ForI32(i, func(fb *builder.FuncBuilder) { fb.Get(0) }, func(fb *builder.FuncBuilder) {
		fb.Get(i).Get(acc).Call(callee.Index).Set(acc)
	})
	f.Get(acc)
	f.Done()
	return b.Build()
}

// callRetObserver implements exactly the three slice-carrying call/return
// hooks with allocation-free bodies, so the measured allocations are the
// dispatcher's own.
type callRetObserver struct{ calls int64 }

func (c *callRetObserver) CallPre(_ analysis.Location, _ int, args []analysis.Value, _ int64) {
	c.calls += int64(len(args))
}
func (c *callRetObserver) CallPost(_ analysis.Location, results []analysis.Value) {
	c.calls += int64(len(results))
}
func (c *callRetObserver) Return(_ analysis.Location, results []analysis.Value) {
	c.calls += int64(len(results))
}

// measureCallReturnAllocs measures allocations per invoke of the call-heavy
// workload, uninstrumented vs under call+return instrumentation, and derives
// the per-hook-call figure the borrowed-buffer convention pins at 0.
func measureCallReturnAllocs(engine *wasabi.Engine) (CallReturnAllocs, error) {
	const loops = 512
	m := callHeavyModule()

	base, err := interp.Instantiate(m, nil)
	if err != nil {
		return CallReturnAllocs{}, err
	}
	rBase := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := base.Invoke("main", interp.I32(loops)); err != nil {
				b.Fatal(err)
			}
		}
	})

	compiled, err := engine.Instrument(m, analysis.CapCallPre|analysis.CapCallPost|analysis.CapReturn)
	if err != nil {
		return CallReturnAllocs{}, err
	}
	sess, err := compiled.NewSession(&callRetObserver{})
	if err != nil {
		return CallReturnAllocs{}, err
	}
	hinst, err := sess.Instantiate("", nil)
	if err != nil {
		return CallReturnAllocs{}, err
	}
	rHooked := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hinst.Invoke("main", interp.I32(loops)); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Per invoke: loops × (call_pre + call_post + callee return) + main's own
	// return.
	hookCalls := int64(3*loops + 1)
	return CallReturnAllocs{
		BaselineAllocsPerOp: float64(rBase.AllocsPerOp()),
		HookedAllocsPerOp:   float64(rHooked.AllocsPerOp()),
		HookCallsPerOp:      hookCalls,
		PerHookCall:         float64(rHooked.AllocsPerOp()-rBase.AllocsPerOp()) / float64(hookCalls),
	}, nil
}
