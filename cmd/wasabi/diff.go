package main

// The -diff mode: run a module through the differential-execution oracle —
// the tree-walking reference interpreter against every production execution
// configuration (plain, all-hooks trampolines, static elision, stream mode,
// fuel-guarded, relinked) — and print a per-config verdict. Exit status 1 on
// any divergence, so the mode works as a faithfulness gate in scripts.

import (
	"fmt"
	"io"
	"os"
	"strconv"

	"wasabi/internal/binary"
	"wasabi/internal/diff"
	"wasabi/internal/wasm"
	"wasabi/internal/wasmgen"
)

// diffArgs is the argument sweep each entry is invoked with: the boundary
// values the generators and the spectest corpus lean on. Missing parameters
// read as zero and extras are ignored, so one scalar works for any arity.
var diffArgs = []uint64{0, 1, 2, 0xFFFF_FFFF, 1 << 31}

// runDiff executes the differential matrix for one exported entry of m and
// writes the per-config verdicts to w. It reports whether every config
// matched the reference.
func runDiff(m *wasm.Module, entry string, w io.Writer) (bool, error) {
	found := false
	for _, exp := range m.Exports {
		if exp.Name == entry && exp.Kind == wasm.ExternFunc {
			found = true
			break
		}
	}
	if !found {
		return false, fmt.Errorf("module exports no function %q", entry)
	}
	var invs []diff.Invocation
	for _, a := range diffArgs {
		invs = append(invs, diff.Invocation{Entry: entry, Args: []uint64{a}})
	}
	report, err := diff.Run(m, diff.Options{
		Invocations: invs,
		PrintF64:    importsPrintF64(m),
	})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "differential matrix for entry %q (%d invocations per config):\n", entry, len(invs))
	fmt.Fprint(w, report.String())
	if !report.OK() {
		fmt.Fprintf(w, "%d divergence(s)\n", len(report.Divergences()))
	}
	return report.OK(), nil
}

// runGen writes the seeded generator's module for seedStr to outPath
// (default gen<seed>.wasm). Deterministic: the same seed always yields the
// byte-identical module, so generated corpora are reproducible from seeds.
func runGen(seedStr, outPath string) error {
	seed, err := strconv.ParseUint(seedStr, 10, 64)
	if err != nil {
		return fmt.Errorf("-gen seed %q: %v", seedStr, err)
	}
	data, err := binary.Encode(wasmgen.Module(seed))
	if err != nil {
		return fmt.Errorf("encode generated module: %v", err)
	}
	if outPath == "" {
		outPath = "gen" + seedStr + ".wasm"
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("generated module (seed %d, entry %q) -> %s (%d B)\n", seed, wasmgen.Entry, outPath, len(data))
	return nil
}

// importsPrintF64 reports whether the module expects the env.print_f64 host
// function the Fig 9 kernels print through; -diff provides it when asked.
func importsPrintF64(m *wasm.Module) bool {
	for _, imp := range m.Imports {
		if imp.Module == "env" && imp.Name == "print_f64" {
			return true
		}
	}
	return false
}
