package main

// The -inspect report surface: instead of writing an instrumented binary,
// print the module's static profile (dead functions, per-function block
// counts, indirect-call fan-out), each function's operand-stack high-water
// mark as the interpreter's compile pass derives it (the exact size exec
// gives the function's operand stack), and the hook-site counts each
// bundled analysis would cost before and after analysis-aware elision.

import (
	"fmt"
	"io"
	"sort"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/interp"
	"wasabi/internal/static"
	"wasabi/internal/wasm"
)

// runInspect prints the static-analysis report for m to w.
func runInspect(m *wasm.Module, w io.Writer) error {
	p, err := static.Profile(m)
	if err != nil {
		return fmt.Errorf("static analysis: %w", err)
	}
	maxStack, err := interp.StackHighWater(m)
	if err != nil {
		return fmt.Errorf("stack sizing: %w", err)
	}

	fmt.Fprintf(w, "module: %d funcs (%d imported), %d in table, %d dead\n",
		p.NumFuncs, p.NumImports, p.TableFuncs, len(p.DeadFuncs))
	if len(p.DeadFuncs) > 0 {
		fmt.Fprintf(w, "dead functions (unreachable from exports/start):\n")
		for _, idx := range p.DeadFuncs {
			fmt.Fprintf(w, "  %4d %s\n", idx, m.FuncName(idx))
		}
	}

	fmt.Fprintf(w, "functions:\n")
	fmt.Fprintf(w, "  %4s  %-24s %7s %10s %9s\n", "idx", "name", "blocks", "reachable", "maxstack")
	for di, fp := range p.Funcs {
		mark := ""
		if fp.Dead {
			mark = "  (dead)"
		}
		fmt.Fprintf(w, "  %4d  %-24s %7d %10d %9d%s\n",
			fp.Idx, fp.Name, fp.Blocks, fp.Reachable, maxStack[di], mark)
	}

	if len(p.IndirectSites) > 0 {
		fmt.Fprintf(w, "indirect call sites (static fan-out over type-matched table entries):\n")
		for _, s := range p.IndirectSites {
			fmt.Fprintf(w, "  func %d: %d possible targets\n", s.Func, s.FanOut)
		}
	}

	fmt.Fprintf(w, "hook call sites per analysis (plain -> static-elided):\n")
	plainEng, err := wasabi.NewEngine()
	if err != nil {
		return err
	}
	staticEng, err := wasabi.NewEngine(wasabi.WithStaticAnalysis())
	if err != nil {
		return err
	}
	names := analyses.Names()
	sort.Strings(names)
	for _, name := range names {
		before, err := hookSites(plainEng, m, name)
		if err != nil {
			fmt.Fprintf(w, "  %-22s %v\n", name, err)
			continue
		}
		after, err := hookSites(staticEng, m, name)
		if err != nil {
			fmt.Fprintf(w, "  %-22s %v\n", name, err)
			continue
		}
		// Signed delta: negative means elision removed sites; block-mode
		// analyses can gain sites (probes added next to kept hooks), even
		// from none, which has no percentage.
		change := "(new)"
		switch {
		case before > 0:
			change = fmt.Sprintf("(%+.1f%%)", 100*(float64(after)/float64(before)-1))
		case after == 0:
			change = "(+0.0%)"
		}
		fmt.Fprintf(w, "  %-22s %7d -> %7d  %s\n", name, before, after, change)
	}
	return nil
}

// hookSites instruments m on eng for the named bundled analysis and counts
// the emitted hook-call instructions.
func hookSites(eng *wasabi.Engine, m *wasm.Module, name string) (int, error) {
	a, err := analyses.New(name)
	if err != nil {
		return 0, err
	}
	ca, err := eng.InstrumentFor(m, a)
	if err != nil {
		return 0, err
	}
	md := ca.Metadata()
	lo, hi := uint32(md.NumImportedFuncs), uint32(md.NumImportedFuncs+md.NumHooks)
	n := 0
	for di := range ca.Module().Funcs {
		for _, ins := range ca.Module().Funcs[di].Body {
			if ins.Op == wasm.OpCall && ins.Idx >= lo && ins.Idx < hi {
				n++
			}
		}
	}
	return n, nil
}
