package wasabi_test

// Acceptance tests of the static-analysis subsystem's engine integration
// (analysis-aware hook elision):
//
//   - probe counting: a coverage-class analysis under a static-analysis
//     engine gets exactly one block_probe call per CFG-reachable basic
//     block — the probe count equals the block count, not the instruction
//     count (the collapse that makes block coverage cheap);
//   - coverage parity: the covered set reconstructed from block probes
//     (callback mode and stream mode) equals per-instruction coverage on
//     every non-structural instruction, across the whole spectest corpus;
//   - dead-function elision: functions unreachable from exports/start carry
//     zero hook calls, while behavior is untouched.

import (
	"sort"
	"testing"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/spectest"
	"wasabi/internal/static"
	"wasabi/internal/wasm"
)

// probeFuncIdx finds the instrumented-index-space function index of the
// block_probe hook import, or -1 when the instrumentation has none.
func probeFuncIdx(ca *wasabi.CompiledAnalysis) int {
	md := ca.Metadata()
	for i := range md.Specs {
		if md.Specs[i].Kind == analysis.KindBlockProbe {
			return md.NumImportedFuncs + i
		}
	}
	return -1
}

// countCallsTo returns per-defined-function counts of OpCall instructions
// targeting a function index in [lo, hi).
func countCallsTo(m *wasm.Module, lo, hi int) []int {
	counts := make([]int, len(m.Funcs))
	for di := range m.Funcs {
		for _, ins := range m.Funcs[di].Body {
			if ins.Op == wasm.OpCall && int(ins.Idx) >= lo && int(ins.Idx) < hi {
				counts[di]++
			}
		}
	}
	return counts
}

// TestBlockProbeCountMatchesBlocks pins the elision acceptance bar: for a
// coverage-class analysis the static engine emits exactly one probe per
// CFG-reachable basic block of each reachable function — never one per
// instruction.
func TestBlockProbeCountMatchesBlocks(t *testing.T) {
	totalProbes, totalInstrs := 0, 0
	for _, c := range spectest.Corpus() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			m := c.Module()
			p, err := static.Profile(m)
			if err != nil {
				t.Fatalf("Profile: %v", err)
			}
			eng := mustEngine(t, wasabi.WithStaticAnalysis())
			ca, err := eng.InstrumentFor(m, analyses.NewInstructionCoverage())
			if err != nil {
				t.Fatalf("InstrumentFor: %v", err)
			}
			pi := probeFuncIdx(ca)
			if pi < 0 {
				t.Fatal("block-mode instrumentation generated no block_probe hook")
			}
			got := countCallsTo(ca.Module(), pi, pi+1)
			numImports := m.NumImportedFuncs()
			for di := range m.Funcs {
				want := 0
				if !p.Funcs[di].Dead {
					want = p.Funcs[di].Reachable
				}
				if got[di] != want {
					t.Errorf("func %d: %d probes, want %d (one per reachable block)",
						numImports+di, got[di], want)
				}
				totalProbes += got[di]
				totalInstrs += len(m.Funcs[di].Body)
			}
		})
	}
	// The collapse must be real: across the corpus there are strictly fewer
	// blocks than instructions.
	if totalProbes == 0 || totalProbes >= totalInstrs {
		t.Errorf("corpus total: %d probes vs %d instructions — probes must count blocks, not instructions",
			totalProbes, totalInstrs)
	}
}

// sortedIO returns the case's non-trapping inputs ascending (stateful corpus
// modules need a deterministic order).
func sortedIO(c spectest.Case) []int32 {
	var ins []int32
	for x := range c.IO {
		ins = append(ins, x)
	}
	sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
	return ins
}

// runCoverage instruments m on the given engine for an InstructionCoverage
// analysis, runs every non-trapping input of the case, and returns the
// covered set.
func runCoverage(t *testing.T, eng *wasabi.Engine, c spectest.Case) map[analysis.Location]bool {
	t.Helper()
	cov := analyses.NewInstructionCoverage()
	ca, err := eng.InstrumentFor(c.Module(), cov)
	if err != nil {
		t.Fatalf("InstrumentFor: %v", err)
	}
	sess, err := ca.NewSession(cov)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	for _, in := range sortedIO(c) {
		res, err := inst.Invoke("run", interp.I32(in))
		if err != nil {
			t.Fatalf("run(%d): %v", in, err)
		}
		if got := interp.AsI32(res[0]); got != c.IO[in] {
			t.Fatalf("run(%d) = %d, want %d", in, got, c.IO[in])
		}
	}
	return cov.Covered
}

// runStreamCoverage runs the case block-probe instrumented in stream mode
// and reconstructs the covered set from the packed probe events.
func runStreamCoverage(t *testing.T, c spectest.Case) map[analysis.Location]bool {
	t.Helper()
	eng := mustEngine(t, wasabi.WithStaticAnalysis())
	ca, err := eng.InstrumentFor(c.Module(), analyses.NewInstructionCoverage())
	if err != nil {
		t.Fatalf("InstrumentFor: %v", err)
	}
	sess, err := ca.NewSession(analyses.NewInstructionCoverage())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	stream, err := sess.Stream()
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	covered := make(map[analysis.Location]bool)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			batch, ok := stream.Next()
			if !ok {
				return
			}
			for i := range batch {
				e := &batch[i]
				if e.Kind != analysis.KindBlockProbe {
					continue
				}
				// Aux carries the block's last original instruction index.
				for instr := int(e.Instr); instr <= int(e.Aux); instr++ {
					covered[analysis.Location{Func: int(e.Func), Instr: instr}] = true
				}
			}
		}
	}()
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	for _, in := range sortedIO(c) {
		res, err := inst.Invoke("run", interp.I32(in))
		if err != nil {
			t.Fatalf("run(%d): %v", in, err)
		}
		if got := interp.AsI32(res[0]); got != c.IO[in] {
			t.Fatalf("run(%d) = %d, want %d", in, got, c.IO[in])
		}
	}
	stream.Close()
	<-done
	if d := stream.Dropped(); d != 0 {
		t.Fatalf("stream dropped %d events", d)
	}
	return covered
}

// diffCoverage compares two covered sets over every instruction of the
// original module except the structural delimiters (`end`, `else`), which
// per-instruction mode observes through frame-exit events that block mode
// deliberately does not reconstruct (see InstructionCoverage.BlockCovered).
func diffCoverage(t *testing.T, m *wasm.Module, perInstr, block map[analysis.Location]bool, label string) {
	t.Helper()
	numImports := m.NumImportedFuncs()
	for di := range m.Funcs {
		fidx := numImports + di
		for i, ins := range m.Funcs[di].Body {
			if ins.Op == wasm.OpEnd || ins.Op == wasm.OpElse {
				continue
			}
			loc := analysis.Location{Func: fidx, Instr: i}
			if perInstr[loc] != block[loc] {
				t.Errorf("%s: func %d instr %d (%s): per-instruction covered=%v, block-probe covered=%v",
					label, fidx, i, ins.Op, perInstr[loc], block[loc])
			}
		}
	}
}

// TestBlockProbeCoverageParity is the output-parity half of the elision
// acceptance bar: over the whole spectest corpus, coverage reconstructed
// from one-probe-per-block instrumentation — through the callback path and
// through the event stream — matches per-instruction coverage on every
// non-structural instruction.
func TestBlockProbeCoverageParity(t *testing.T) {
	for _, c := range spectest.Corpus() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			perInstr := runCoverage(t, mustEngine(t), c)
			blockCb := runCoverage(t, mustEngine(t, wasabi.WithStaticAnalysis()), c)
			diffCoverage(t, c.Module(), perInstr, blockCb, "callback")
			blockStream := runStreamCoverage(t, c)
			diffCoverage(t, c.Module(), perInstr, blockStream, "stream")
		})
	}
}

// deadFuncModule builds a module with three defined functions: an unexported
// helper (reachable through the exported entry), an unexported dead function
// that nothing references, and the exported entry run(x) = helper(x) = x+1.
// Returns the module and the dead function's index.
func deadFuncModule() (*wasm.Module, int) {
	b := builder.New()
	helper := b.Func("", builder.V(wasm.I32), builder.V(wasm.I32))
	helper.Get(0).I32(1).Op(wasm.OpI32Add)
	helper.Done()
	dead := b.Func("", builder.V(wasm.I32), builder.V(wasm.I32))
	dead.Block().Get(0).I32(10).Op(wasm.OpI32LtS).BrIf(0).Get(0).Return().End().I32(0)
	deadIdx := dead.Done()
	run := b.Func("run", builder.V(wasm.I32), builder.V(wasm.I32))
	run.Get(0).Call(helper.Index)
	run.Done()
	return b.Build(), int(deadIdx)
}

// TestDeadFunctionElision checks the plan's SkipFunc half: a function
// unreachable from any export or the start function is left byte-for-byte
// uninstrumented by a static-analysis engine, while reachable functions
// keep their hooks and the program's behavior is unchanged.
func TestDeadFunctionElision(t *testing.T) {
	m, deadIdx := deadFuncModule()
	deadDef := deadIdx - m.NumImportedFuncs()

	p, err := static.Profile(m)
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if !p.Funcs[deadDef].Dead {
		t.Fatalf("func %d should be unreachable from exports/start", deadIdx)
	}

	hookCalls := func(eng *wasabi.Engine) ([]int, *wasabi.CompiledAnalysis) {
		ca, err := eng.Instrument(m, wasabi.AllCaps)
		if err != nil {
			t.Fatalf("Instrument: %v", err)
		}
		md := ca.Metadata()
		return countCallsTo(ca.Module(), md.NumImportedFuncs, md.NumImportedFuncs+md.NumHooks), ca
	}

	plain, _ := hookCalls(mustEngine(t))
	if plain[deadDef] == 0 {
		t.Fatal("baseline engine should instrument the dead function (no elision without static analysis)")
	}

	elided, ca := hookCalls(mustEngine(t, wasabi.WithStaticAnalysis()))
	if elided[deadDef] != 0 {
		t.Errorf("dead function carries %d hook calls after elision, want 0", elided[deadDef])
	}
	origBody := m.Funcs[deadDef].Body
	gotBody := ca.Module().Funcs[deadDef].Body
	if len(gotBody) != len(origBody) {
		t.Errorf("dead function body grew from %d to %d instructions", len(origBody), len(gotBody))
	}
	for di, n := range elided {
		if di != deadDef && n == 0 {
			t.Errorf("reachable func %d lost all hooks", m.NumImportedFuncs()+di)
		}
	}

	cov := analyses.NewInstructionCoverage()
	sess, err := ca.NewSession(cov)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	res, err := inst.Invoke("run", interp.I32(41))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := interp.AsI32(res[0]); got != 42 {
		t.Errorf("run(41) = %d, want 42", got)
	}
	for loc := range cov.Covered {
		if loc.Func == deadIdx {
			t.Errorf("covered location %v in dead function", loc)
		}
	}
}
