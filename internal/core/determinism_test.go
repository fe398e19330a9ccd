package core

import (
	"bytes"
	"runtime"
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/binary"
	"wasabi/internal/synthapp"
)

// TestInstrumentDeterministic asserts the hard determinism contract of the
// worker-pool instrumenter: instrumenting the same module repeatedly — and
// serially vs. with every parallelism level up to GOMAXPROCS — produces
// byte-identical encoded modules. The synthetic app exercises every hook
// family, including br_table metadata and call monomorphization.
func TestInstrumentDeterministic(t *testing.T) {
	m := synthapp.Generate(synthapp.Config{TargetBytes: 64 << 10, Seed: 7})
	enc := func(par int) []byte {
		out, _, err := instrument(m, Options{Hooks: analysis.AllHooks}, par)
		if err != nil {
			t.Fatal(err)
		}
		data, err := binary.Encode(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := enc(1)
	if len(serial) == 0 {
		t.Fatal("empty encoding")
	}
	// Same module twice, serially: identical.
	if !bytes.Equal(serial, enc(1)) {
		t.Fatal("two serial instrumentation runs differ")
	}
	// Serial vs. every worker-pool width, several rounds to shake out
	// scheduling-dependent orderings.
	for par := 2; par <= runtime.GOMAXPROCS(0)+2; par++ {
		for round := 0; round < 3; round++ {
			if !bytes.Equal(serial, enc(par)) {
				t.Fatalf("parallelism %d (round %d) produced different bytes than serial", par, round)
			}
		}
	}
}

// TestInstrumentAllocs guards the allocation budget of the instrumentation
// hot path: after the pooled instrumenter reaches steady state, a full
// instrumentation run of a small kernel must stay within a small per-run
// allocation budget (the escaping outputs — bodies, locals, metadata,
// imports — not per-instruction garbage). The seed implementation spent
// ~1300 allocs on this module; the budget fails the test long before any
// per-instruction allocation pattern could return.
func TestInstrumentAllocs(t *testing.T) {
	m := synthapp.Generate(synthapp.Config{TargetBytes: 8 << 10, Seed: 3})
	opts := Options{Hooks: analysis.AllHooks, SkipValidation: true}
	// Warm the pools and capture the output structure for the budget.
	_, md, err := instrument(m, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, _, err := instrument(m, opts, 1); err != nil {
			t.Fatal(err)
		}
	})
	// Budget scales with the structures that legitimately escape into the
	// output (bodies, locals, hook imports, br_table metadata), NOT with the
	// instruction count: a per-instruction allocation regression adds at
	// least CountInstrs() (~14k here) and blows far past it. Seed behavior
	// was ~100 allocs per input instruction.
	targets := 0
	for i := range md.BrTables {
		targets += len(md.BrTables[i].Targets) + 1
	}
	budget := float64(10*len(m.Funcs) + 8*md.NumHooks + 6*len(md.BrTables) + 2*targets + 300)
	if avg > budget {
		t.Errorf("Instrument allocates %.0f/run, budget %.0f (funcs=%d hooks=%d brTables=%d)",
			avg, budget, len(m.Funcs), md.NumHooks, len(md.BrTables))
	}
	if lo := budget / 2; avg > lo {
		t.Logf("note: %.0f allocs/run is above half the budget (%.0f); investigate before it regresses further", avg, lo)
	}
}
