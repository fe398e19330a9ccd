// Command wasabi instruments a WebAssembly binary ahead of time, the way
// the paper's command-line instrumenter does: it reads a .wasm file, inserts
// calls to low-level analysis hooks (selectively, per -hooks), and writes
// the instrumented .wasm next to a JSON metadata file (the analogue of the
// generated JavaScript glue).
//
// Usage:
//
//	wasabi [-hooks all|h1,h2,...] [-o out.wasm] [-meta out.json] input.wasm
//	wasabi -inspect input.wasm
//	wasabi -diff input.wasm [entry]
//	wasabi -gen seed [-o out.wasm]
//
// With -inspect no output is written: the command prints the module's
// static profile (dead functions, per-function basic-block and stack
// facts, indirect-call fan-out) and, for every bundled analysis, the
// number of hook call sites instrumentation would insert with and without
// analysis-aware elision.
//
// With -diff the module is run through the differential-execution oracle:
// the reference interpreter against every production configuration (plain,
// hooked, static-elided, stream, fuel-guarded, relinked), invoking entry
// (default "run") over a small argument sweep and comparing results, traps,
// and a final memory+globals digest. Exit status 1 on divergence.
//
// With -gen a seeded structurally-valid random module (the differential
// harness's generator; deterministic per seed, entry "run") is written to
// -o instead of reading an input — handy as -diff fodder in scripts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"wasabi"
	"wasabi/internal/analysis"
	"wasabi/internal/binary"
	"wasabi/internal/validate"
	"wasabi/internal/wasm"
	"wasabi/internal/wat"
)

func main() {
	hooks := flag.String("hooks", "all", "comma-separated hook kinds to instrument, or \"all\"")
	out := flag.String("o", "", "output file (default: <input>.instrumented.wasm)")
	metaOut := flag.String("meta", "", "metadata JSON file (default: <input>.wasabi.json)")
	check := flag.Bool("validate", true, "validate the instrumented output")
	inspect := flag.Bool("inspect", false, "print the static-analysis report instead of instrumenting")
	diffMode := flag.Bool("diff", false, "run the differential-execution matrix instead of instrumenting")
	genSeed := flag.String("gen", "", "generate a seeded random module to -o instead of reading an input")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wasabi [flags] input.wasm\n\nhook kinds: all, or any of:\n  ")
		var names []string
		for k := analysis.HookKind(0); int(k) < analysis.NumKinds; k++ {
			names = append(names, k.String())
		}
		fmt.Fprintf(os.Stderr, "%s\n\nflags:\n", strings.Join(names, " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if *genSeed != "" {
		if flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
		if err := runGen(*genSeed, *out); err != nil {
			fatal("%v", err)
		}
		return
	}
	if flag.NArg() != 1 && !(*diffMode && flag.NArg() == 2) {
		flag.Usage()
		os.Exit(2)
	}
	input := flag.Arg(0)

	set, ok := analysis.ParseHookSet(*hooks)
	if !ok {
		fatal("invalid -hooks value %q", *hooks)
	}
	data, err := os.ReadFile(input)
	if err != nil {
		fatal("%v", err)
	}
	var m *wasm.Module
	if strings.HasSuffix(input, ".wat") {
		m, err = wat.Parse(string(data))
		if err != nil {
			fatal("parse %s: %v", input, err)
		}
		// Size comparisons below are against the encoded binary form.
		if data, err = binary.Encode(m); err != nil {
			fatal("encode parsed module: %v", err)
		}
	} else {
		m, err = binary.Decode(data)
		if err != nil {
			fatal("decode %s: %v", input, err)
		}
	}
	if *inspect {
		if err := runInspect(m, os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}
	if *diffMode {
		entry := "run"
		if flag.NArg() == 2 {
			entry = flag.Arg(1)
		}
		ok, err := runDiff(m, entry, os.Stdout)
		if err != nil {
			fatal("diff: %v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	engine, err := wasabi.NewEngine()
	if err != nil {
		fatal("%v", err)
	}
	compiled, err := engine.InstrumentHooks(m, set)
	if err != nil {
		fatal("instrument: %v", err)
	}
	md := compiled.Metadata()
	if *check {
		if err := validate.Module(compiled.Module()); err != nil {
			fatal("instrumented module invalid: %v", err)
		}
	}
	outData, err := compiled.Encode()
	if err != nil {
		fatal("encode: %v", err)
	}
	outPath := *out
	if outPath == "" {
		outPath = strings.TrimSuffix(input, ".wasm") + ".instrumented.wasm"
	}
	metaPath := *metaOut
	if metaPath == "" {
		metaPath = strings.TrimSuffix(input, ".wasm") + ".wasabi.json"
	}
	if err := os.WriteFile(outPath, outData, 0o644); err != nil {
		fatal("%v", err)
	}
	mdJSON, err := json.MarshalIndent(md, "", "  ")
	if err != nil {
		fatal("marshal metadata: %v", err)
	}
	if err := os.WriteFile(metaPath, mdJSON, 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("instrumented %s (%d B) -> %s (%d B, +%.1f%%), %d low-level hooks, metadata in %s\n",
		input, len(data), outPath, len(outData),
		100*(float64(len(outData))/float64(len(data))-1), len(md.Hooks), metaPath)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wasabi: "+format+"\n", args...)
	os.Exit(1)
}
