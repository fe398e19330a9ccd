package wasabi_test

// Benchmarks regenerating the paper's evaluation (one per table/figure):
//
//	BenchmarkTable5_*   — instrumentation time and throughput (Table 5;
//	                      b.SetBytes makes `go test -bench` report MB/s)
//	BenchmarkFig8_*     — the size measurement underlying Figure 8
//	BenchmarkFig9_*     — runtime per hook relative to Fig9_Baseline
//	                      (Figure 9; ratios printed by cmd/wasabi-bench)
//	BenchmarkMono       — full instrumentation incl. on-demand
//	                      monomorphization on the diverse app (§4.5)
//
// cmd/wasabi-bench prints the same data formatted as the paper's rows.

import (
	"testing"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/binary"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/polybench"
	"wasabi/internal/static"
	"wasabi/internal/synthapp"
	"wasabi/internal/wasm"
)

func gemmModule(b *testing.B, n int32) *wasm.Module {
	b.Helper()
	k, ok := polybench.ByName("gemm")
	if !ok {
		b.Fatal("gemm missing")
	}
	return k.Module(n)
}

func appModule(b *testing.B, bytes int) (*wasm.Module, int) {
	b.Helper()
	m := synthapp.Generate(synthapp.Config{TargetBytes: bytes, Seed: 11})
	data, err := binary.Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	return m, len(data)
}

// BenchmarkTable5_InstrumentPolyBench measures full instrumentation of one
// PolyBench kernel (Table 5, PolyBench row).
func BenchmarkTable5_InstrumentPolyBench(b *testing.B) {
	m := gemmModule(b, 16)
	data, _ := binary.Encode(m)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks, SkipValidation: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5_InstrumentApp measures full instrumentation of a 1 MiB
// synthetic application (Table 5, app rows; MB/s is the throughput column).
func BenchmarkTable5_InstrumentApp(b *testing.B) {
	m, size := appModule(b, 1<<20)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks, SkipValidation: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5_InstrumentAppStatic is BenchmarkTable5_InstrumentApp with
// the static plan in the loop: static.PlanFor (call graph and CFGs), then
// plan-guided instrumentation. The row measures elision, not the cost of the
// static pass: the plan skips every function the call graph cannot reach, so
// the row is faster than the plain one. On a 2-core linux/amd64 VM (-cpu 2,
// 20 iterations, 3 counts) it took 11.5–12.6 ms and about 13,700 allocs/op,
// against 43–51 ms for the plain row.
func BenchmarkTable5_InstrumentAppStatic(b *testing.B) {
	m, size := appModule(b, 1<<20)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := static.PlanFor(m, analysis.AllHooks)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks, SkipValidation: true, Plan: plan}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9_Coverage measures the gemm kernel under instruction coverage
// instrumented two ways: per-instruction begin/end hooks (plain engine) vs
// one block_probe per reachable CFG block (WithStaticAnalysis). The ratio of
// the two is the Fig 9 coverage-overhead reduction from block-probe elision.
func BenchmarkFig9_Coverage(b *testing.B) {
	cases := []struct {
		name string
		eng  *wasabi.Engine
	}{
		{"per_instr", mustEngine(b)},
		{"block_probe", mustEngine(b, wasabi.WithStaticAnalysis())},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			m := gemmModule(b, 16)
			ca, err := tc.eng.InstrumentFor(m, analyses.NewInstructionCoverage())
			if err != nil {
				b.Fatal(err)
			}
			sess, err := ca.NewSession(analyses.NewInstructionCoverage())
			if err != nil {
				b.Fatal(err)
			}
			runKernel(b, sess)
		})
	}
}

// BenchmarkFig8_SizePerHook performs the selective instrumentation + encode
// underlying one Figure 8 data point.
func BenchmarkFig8_SizePerHook(b *testing.B) {
	m := gemmModule(b, 16)
	cases := []struct {
		name string
		set  analysis.HookSet
	}{
		{"load", analysis.Set(analysis.KindLoad)},
		{"binary", analysis.Set(analysis.KindBinary)},
		{"all", analysis.AllHooks},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			set := tc.set
			for i := 0; i < b.N; i++ {
				inst, _, err := core.Instrument(m, core.Options{Hooks: set, SkipValidation: true})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := binary.Encode(inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// runKernel runs the gemm kernel once on an instance.
func runKernel(b *testing.B, sess *wasabi.Session) {
	b.Helper()
	inst, err := sess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Invoke("kernel"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9_Baseline is the uninstrumented runtime all Figure 9 ratios
// are relative to.
func BenchmarkFig9_Baseline(b *testing.B) {
	m := gemmModule(b, 16)
	inst, err := interp.Instantiate(m, polybench.HostImports(nil))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Invoke("kernel"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9_PerHook measures the instrumented runtime (empty analysis)
// for a representative set of hooks plus full instrumentation.
func BenchmarkFig9_PerHook(b *testing.B) {
	m := gemmModule(b, 16)
	cases := []struct {
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
	engine := mustEngine(b)
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			compiled, err := engine.InstrumentHooks(m, tc.set)
			if err != nil {
				b.Fatal(err)
			}
			sess, err := compiled.NewSession(&analyses.Empty{})
			if err != nil {
				b.Fatal(err)
			}
			runKernel(b, sess)
		})
	}
}

// BenchmarkMono measures full instrumentation of the signature-diverse app,
// dominated by on-demand monomorphization of call hooks (§4.5).
func BenchmarkMono(b *testing.B) {
	m, size := appModule(b, 256<<10)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, md, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks, SkipValidation: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(md.Specs) < 50 {
			b.Fatalf("expected substantial hook monomorphization, got %d hooks", len(md.Specs))
		}
	}
}

// BenchmarkInterp measures raw interpreter speed (the substrate's cost,
// which dilutes Figure 9 ratios relative to the paper's JIT baseline).
func BenchmarkInterp(b *testing.B) {
	m := gemmModule(b, 16)
	instrs := m.CountInstrs()
	inst, err := interp.Instantiate(m, polybench.HostImports(nil))
	if err != nil {
		b.Fatal(err)
	}
	_ = instrs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Invoke("kernel"); err != nil {
			b.Fatal(err)
		}
	}
}
