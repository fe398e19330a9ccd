// Package experiments regenerates the tables and figures of the paper's
// evaluation (Section 4): Table 4 (analyses and their size), the RQ2
// faithfulness check, Table 5 (instrumentation time and throughput),
// Figure 8 (code-size increase per hook), the §4.5 on-demand
// monomorphization counts, and Figure 9 (runtime overhead per hook).
// cmd/wasabi-bench prints them; its timings are best-of-N single runs, not
// the numbers the repository tracks (those come from perfbench).
package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/binary"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/polybench"
	wruntime "wasabi/internal/runtime"
	"wasabi/internal/synthapp"
	"wasabi/internal/validate"
	"wasabi/internal/wasm"
)

// Config scales the experiments. The defaults are laptop-friendly; pass
// -full to cmd/wasabi-bench for the paper-scale binary sizes.
type Config struct {
	// PolyN is the PolyBench problem size used when kernels are executed.
	PolyN int32
	// PSPDFBytes / UnrealBytes are the synthetic-app binary sizes standing
	// in for PSPDFKit (paper: 9.6 MB) and the Unreal Engine (39.5 MB).
	PSPDFBytes  int
	UnrealBytes int
	// Reps is the number of timing repetitions (paper: 20).
	Reps int
	// RunN is the argument to the synthetic apps' main when executed.
	RunN int32
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{
		PolyN:       16,
		PSPDFBytes:  1 << 20, // 1 MiB stand-in
		UnrealBytes: 4 << 20, // 4 MiB stand-in
		Reps:        5,
		RunN:        512,
	}
}

// PaperScale returns the full paper-scale sizes (slower).
func PaperScale() Config {
	c := DefaultConfig()
	c.PSPDFBytes = 9_600_000
	c.UnrealBytes = 39_500_000
	c.Reps = 20
	return c
}

// Workload is a named module with its encoded size.
type Workload struct {
	Name  string
	Mod   *wasm.Module
	Bytes []byte
}

// PolyBenchWorkloads builds all 30 kernels at problem size n.
func PolyBenchWorkloads(n int32) []Workload {
	var out []Workload
	for _, k := range polybench.Kernels() {
		m := k.Module(n)
		data, err := binary.Encode(m)
		if err != nil {
			panic(err)
		}
		out = append(out, Workload{Name: k.Name, Mod: m, Bytes: data})
	}
	return out
}

// AppWorkload builds one synthetic application of the given size.
func AppWorkload(name string, bytes int, seed uint64) Workload {
	m := synthapp.Generate(synthapp.Config{TargetBytes: bytes, Seed: seed})
	data, err := binary.Encode(m)
	if err != nil {
		panic(err)
	}
	return Workload{Name: name, Mod: m, Bytes: data}
}

// hookKinds is the x-axis of Figures 8 and 9 (paper order).
var hookKinds = []analysis.HookKind{
	analysis.KindNop, analysis.KindUnreachable, analysis.KindMemorySize,
	analysis.KindMemoryGrow, analysis.KindSelect, analysis.KindDrop,
	analysis.KindLoad, analysis.KindStore, analysis.KindCall,
	analysis.KindReturn, analysis.KindConst, analysis.KindUnary,
	analysis.KindBinary, analysis.KindGlobal, analysis.KindLocal,
	analysis.KindBegin, analysis.KindEnd, analysis.KindIf,
	analysis.KindBr, analysis.KindBrIf, analysis.KindBrTable,
}

// Table4 prints the bundled analyses with their hook sets and lines of code
// (paper Table 4). Taint's count includes the shadow stack it shares with
// the origin analysis.
func Table4(w io.Writer) error {
	rows := []struct {
		name  string
		files []string
	}{
		{"instruction-mix", []string{"instructionmix.go"}},
		{"block-profile", []string{"blockprofile.go"}},
		{"instruction-coverage", []string{"coverage.go"}},
		{"branch-coverage", []string{"branchcoverage.go"}},
		{"call-graph", []string{"callgraph.go"}},
		{"taint", []string{"taint.go", "shadow.go"}},
		{"cryptominer", []string{"cryptominer.go"}},
		{"memory-trace", []string{"memtrace.go"}},
	}
	fmt.Fprintf(w, "Table 4: analyses built on top of Wasabi\n")
	fmt.Fprintf(w, "%-22s %-55s %5s\n", "Analysis", "Hooks", "LOC")
	for _, r := range rows {
		a, err := analyses.New(r.name)
		if err != nil {
			return err
		}
		loc := 0
		for _, file := range r.files {
			n, err := analyses.LinesOfCode(file)
			if err != nil {
				return err
			}
			loc += n
		}
		hooks := analysis.HooksOf(a).String()
		fmt.Fprintf(w, "%-22s %-55s %5d\n", r.name, hooks, loc)
	}
	return nil
}

// RQ2 re-runs the faithfulness evaluation: every PolyBench kernel and
// several synthetic apps, original vs fully instrumented, plus validation
// of every instrumented binary.
func RQ2(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "RQ2: faithfulness of execution\n")
	pass, fail := 0, 0
	check := func(name string, ok bool, detail string) {
		if ok {
			pass++
			return
		}
		fail++
		fmt.Fprintf(w, "  FAIL %-20s %s\n", name, detail)
	}
	for _, k := range polybench.Kernels() {
		m := k.Module(cfg.PolyN)
		want := k.Reference(cfg.PolyN)
		inst, md, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks})
		if err != nil {
			check(k.Name, false, err.Error())
			continue
		}
		check(k.Name+"/validate", validate.Module(inst) == nil, "instrumented module invalid")
		got, err := runInstrumentedKernel(inst, md)
		check(k.Name+"/result", err == nil && got == want,
			fmt.Sprintf("got %v want %v err %v", got, want, err))
	}
	for seed := uint64(1); seed <= 3; seed++ {
		name := fmt.Sprintf("synthapp-%d", seed)
		m := synthapp.Generate(synthapp.Config{TargetBytes: 40_000, Seed: seed})
		want, err := synthapp.Run(m, cfg.RunN)
		if err != nil {
			check(name, false, err.Error())
			continue
		}
		inst, md, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks})
		if err != nil {
			check(name, false, err.Error())
			continue
		}
		check(name+"/validate", validate.Module(inst) == nil, "instrumented module invalid")
		got, err := runInstrumentedApp(inst, md, cfg.RunN)
		check(name+"/result", err == nil && got == want,
			fmt.Sprintf("got %v want %v err %v", got, want, err))
	}
	fmt.Fprintf(w, "  %d checks passed, %d failed\n", pass, fail)
	if fail > 0 {
		return fmt.Errorf("rq2: %d faithfulness checks failed", fail)
	}
	return nil
}

// Table5 measures instrumentation time and throughput (paper Table 5), and
// the single-threaded vs parallel ratio reported in §4.4.
func Table5(w io.Writer, cfg Config) error {
	poly := PolyBenchWorkloads(cfg.PolyN)
	pspdf := AppWorkload("pspdfkit-scale", cfg.PSPDFBytes, 11)
	unreal := AppWorkload("unreal-scale", cfg.UnrealBytes, 13)

	fmt.Fprintf(w, "Table 5: time to instrument (full instrumentation, %d reps)\n", cfg.Reps)
	fmt.Fprintf(w, "%-18s %14s %16s %10s\n", "Program", "Binary size", "Runtime", "MB/s")

	// PolyBench row: mean over the 30 programs.
	var sizes, times []float64
	for _, wl := range poly {
		t, err := timeInstrument(wl.Mod, cfg.Reps)
		if err != nil {
			return fmt.Errorf("table5: %s: %w", wl.Name, err)
		}
		sizes = append(sizes, float64(len(wl.Bytes)))
		times = append(times, t.Seconds())
	}
	meanSize, sdSize := meanStd(sizes)
	meanTime, sdTime := meanStd(times)
	fmt.Fprintf(w, "%-18s %7.0f±%-4.0f B %9.2f±%.2fms %10.2f\n",
		"PolyBench (avg.)", meanSize, sdSize, meanTime*1e3, sdTime*1e3, meanSize/meanTime/1e6)

	for _, wl := range []Workload{pspdf, unreal} {
		var ts []float64
		for r := 0; r < cfg.Reps; r++ {
			t, err := timeInstrument(wl.Mod, 1)
			if err != nil {
				return fmt.Errorf("table5: %s: %w", wl.Name, err)
			}
			ts = append(ts, t.Seconds())
		}
		mt, st := meanStd(ts)
		fmt.Fprintf(w, "%-18s %12d B %9.0f±%.0fms %10.2f\n",
			wl.Name, len(wl.Bytes), mt*1e3, st*1e3, float64(len(wl.Bytes))/mt/1e6)
	}

	// Parallelization ratio on the largest binary (paper: 15.5/26.5 ≈ 0.58);
	// GOMAXPROCS=1 gives the single-threaded path.
	tPar, err := timeInstrument(unreal.Mod, 1)
	if err != nil {
		return fmt.Errorf("table5: %s: %w", unreal.Name, err)
	}
	procs := runtime.GOMAXPROCS(1)
	tSeq, err := timeInstrument(unreal.Mod, 1)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return fmt.Errorf("table5: %s single-threaded: %w", unreal.Name, err)
	}
	fmt.Fprintf(w, "parallel/single-threaded on %s: %.2f (paper: ~0.58 on 2 cores)\n",
		unreal.Name, tPar.Seconds()/tSeq.Seconds())
	return nil
}

// Fig8 measures binary-size increase per instrumented hook (paper Figure 8).
func Fig8(w io.Writer, cfg Config) error {
	poly := PolyBenchWorkloads(cfg.PolyN)
	pspdf := AppWorkload("pspdfkit-scale", cfg.PSPDFBytes, 11)
	unreal := AppWorkload("unreal-scale", cfg.UnrealBytes, 13)

	fmt.Fprintf(w, "Figure 8: binary size increase per hook (%% of original size)\n")
	fmt.Fprintf(w, "%-12s %15s %15s %15s\n", "Hook", "PolyBench(mean)", "pspdfkit-scale", "unreal-scale")

	row := func(label string, set analysis.HookSet) error {
		var polyIncs []float64
		for _, wl := range poly {
			inc, err := sizeIncrease(wl, set)
			if err != nil {
				return err
			}
			polyIncs = append(polyIncs, inc)
		}
		meanPoly, _ := meanStd(polyIncs)
		incP, err := sizeIncrease(pspdf, set)
		if err != nil {
			return err
		}
		incU, err := sizeIncrease(unreal, set)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %14.1f%% %14.1f%% %14.1f%%\n", label, meanPoly, incP, incU)
		return nil
	}
	for _, k := range hookKinds {
		if err := row(k.String(), analysis.Set(k)); err != nil {
			return err
		}
	}
	return row("all", analysis.AllHooks)
}

// Mono reports the on-demand monomorphization hook counts of §4.5 and the
// eager bound they avoid.
func Mono(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "On-demand monomorphization (paper 4.5)\n")
	fmt.Fprintf(w, "%-18s %12s %14s %22s\n", "Program", "Hooks", "Max call args", "Eager call-hook bound")
	report := func(wl Workload) error {
		_, md, err := core.Instrument(wl.Mod, core.Options{Hooks: analysis.AllHooks})
		if err != nil {
			return err
		}
		maxArgs := 0
		for i := range wl.Mod.Types {
			if n := len(wl.Mod.Types[i].Params); n > maxArgs {
				maxArgs = n
			}
		}
		eager := math.Pow(4, float64(maxArgs))
		fmt.Fprintf(w, "%-18s %12d %14d %22.0f\n", wl.Name, len(md.Specs), maxArgs, eager)
		return nil
	}
	poly := PolyBenchWorkloads(cfg.PolyN)
	lo, hi := poly[0], poly[0]
	loN, err := hookCount(lo)
	if err != nil {
		return err
	}
	hiN := loN
	for _, wl := range poly[1:] {
		n, err := hookCount(wl)
		if err != nil {
			return err
		}
		if n < loN {
			lo, loN = wl, n
		}
		if n > hiN {
			hi, hiN = wl, n
		}
	}
	fmt.Fprintf(w, "PolyBench range: %d (%s) to %d (%s) hooks\n", loN, lo.Name, hiN, hi.Name)
	if err := report(AppWorkload("pspdfkit-scale", cfg.PSPDFBytes, 11)); err != nil {
		return err
	}
	return report(AppWorkload("unreal-scale", cfg.UnrealBytes, 13))
}

func hookCount(wl Workload) (int, error) {
	_, md, err := core.Instrument(wl.Mod, core.Options{Hooks: analysis.AllHooks})
	if err != nil {
		return 0, fmt.Errorf("mono: %s: %w", wl.Name, err)
	}
	return len(md.Specs), nil
}

// Fig9 measures the runtime of instrumented programs relative to the
// uninstrumented runtime, per hook, with the empty analysis (paper
// Figure 9). kernels limits the PolyBench subset (nil = a representative
// five) to keep the harness fast.
func Fig9(w io.Writer, cfg Config, kernels []string) error {
	if kernels == nil {
		kernels = []string{"gemm", "atax", "jacobi-2d", "floyd-warshall", "cholesky"}
	}
	type target struct {
		name string
		mod  *wasm.Module
		run  func(inst *interp.Instance) error
	}
	var targets []target
	for _, name := range kernels {
		k, ok := polybench.ByName(name)
		if !ok {
			return fmt.Errorf("fig9: unknown kernel %q", name)
		}
		m := k.Module(cfg.PolyN)
		targets = append(targets, target{name: name, mod: m, run: func(inst *interp.Instance) error {
			_, err := inst.Invoke("kernel")
			return err
		}})
	}
	app := AppWorkload("synthapp", 150_000, 11)
	runN := cfg.RunN
	targets = append(targets, target{name: app.Name, mod: app.Mod, run: func(inst *interp.Instance) error {
		_, err := inst.Invoke("main", interp.I32(runN))
		return err
	}})

	fmt.Fprintf(w, "Figure 9: relative runtime per hook (instrumented / original, empty analysis)\n")
	fmt.Fprintf(w, "%-12s %12s %12s\n", "Hook", "PolyBench", "synthapp")

	// Baselines.
	base := make([]float64, len(targets))
	for i, tg := range targets {
		d, err := timeRun(tg.mod, nil, tg.run, cfg.Reps)
		if err != nil {
			return fmt.Errorf("fig9: baseline %s: %w", tg.name, err)
		}
		base[i] = d.Seconds()
	}

	row := func(label string, set analysis.HookSet) error {
		var polyRatios []float64
		var appRatio float64
		for i, tg := range targets {
			inst, md, err := core.Instrument(tg.mod, core.Options{Hooks: set})
			if err != nil {
				return err
			}
			d, err := timeRun(inst, md, tg.run, cfg.Reps)
			if err != nil {
				return fmt.Errorf("fig9: %s under %s: %w", tg.name, label, err)
			}
			ratio := d.Seconds() / base[i]
			if tg.name == "synthapp" {
				appRatio = ratio
			} else {
				polyRatios = append(polyRatios, ratio)
			}
		}
		fmt.Fprintf(w, "%-12s %11.2fx %11.2fx\n", label, geomean(polyRatios), appRatio)
		return nil
	}
	for _, k := range hookKinds {
		if err := row(k.String(), analysis.Set(k)); err != nil {
			return err
		}
	}
	return row("all", analysis.AllHooks)
}

// --- helpers ---

// instantiateWithEmpty instantiates m with the program imports extra and,
// when md is not nil, the empty analysis providing its hook imports.
func instantiateWithEmpty(m *wasm.Module, md *core.Metadata, extra interp.Imports) (*interp.Instance, error) {
	merged := interp.Imports{}
	for k, v := range extra {
		merged[k] = v
	}
	if md != nil {
		for k, v := range wruntime.New(md, &analyses.Empty{}).Imports() {
			merged[k] = v
		}
	}
	return interp.Instantiate(m, merged)
}

func timeInstrument(m *wasm.Module, reps int) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		start := time.Now()
		_, _, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks, SkipValidation: true})
		if err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

func sizeIncrease(wl Workload, set analysis.HookSet) (float64, error) {
	inst, _, err := core.Instrument(wl.Mod, core.Options{Hooks: set, SkipValidation: true})
	if err != nil {
		return 0, err
	}
	data, err := binary.Encode(inst)
	if err != nil {
		return 0, err
	}
	return 100 * (float64(len(data))/float64(len(wl.Bytes)) - 1), nil
}

func runInstrumentedKernel(m *wasm.Module, md *core.Metadata) (float64, error) {
	inst, err := instantiateWithEmpty(m, md, polybench.HostImports(nil))
	if err != nil {
		return 0, err
	}
	res, err := inst.Invoke("kernel")
	if err != nil {
		return 0, err
	}
	return interp.AsF64(res[0]), nil
}

func runInstrumentedApp(m *wasm.Module, md *core.Metadata, n int32) (int32, error) {
	inst, err := instantiateWithEmpty(m, md, nil)
	if err != nil {
		return 0, err
	}
	res, err := inst.Invoke("main", interp.I32(n))
	if err != nil {
		return 0, err
	}
	return interp.AsI32(res[0]), nil
}

// timeRun returns the best of reps runs, each on a fresh instance of m
// (uninstrumented when md is nil; see instantiateWithEmpty).
func timeRun(m *wasm.Module, md *core.Metadata, run func(*interp.Instance) error, reps int) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	// One untimed warmup rep stabilizes CPU frequency and allocator state;
	// without it the first-measured configuration reads systematically slow.
	for i := 0; i < reps+1; i++ {
		inst, err := instantiateWithEmpty(m, md, polybench.HostImports(nil))
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := run(inst); err != nil {
			return 0, err
		}
		if d := time.Since(start); i > 0 && d < best {
			best = d
		}
	}
	return best, nil
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
