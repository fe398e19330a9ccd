package interp_test

import (
	"sort"
	"testing"

	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/runtime"
	"wasabi/internal/spectest"
)

// TestExactSizingObserved runs every spectest program on each of its
// inputs: as written, and instrumented for AllCaps both under an empty
// analysis, whose hook calls the compile pass elides, and under one that
// observes every hook, whose hook calls run. exec gives each operand stack
// exactly the compile pass's high-water mark (StackHighWater), with no
// slack, so a mark that is one slot short makes some push write past the
// stack: the run fails with a fault instead of returning the expected
// result.
func TestExactSizingObserved(t *testing.T) {
	for _, c := range spectest.Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			m := c.Module()
			orig, err := interp.Instantiate(m, nil)
			if err != nil {
				t.Fatalf("instantiate: %v", err)
			}
			instrumented, md, err := core.Instrument(m, core.Options{Hooks: analysis.AllCaps.HookSet()})
			if err != nil {
				t.Fatalf("instrument: %v", err)
			}
			elided, err := interp.Instantiate(instrumented, runtime.New(md, struct{}{}).Imports())
			if err != nil {
				t.Fatalf("instantiate instrumented, empty analysis: %v", err)
			}
			hooked, err := interp.Instantiate(instrumented, runtime.New(md, analyses.NewInstructionMix()).Imports())
			if err != nil {
				t.Fatalf("instantiate instrumented, every hook: %v", err)
			}
			var ins []int32
			for x := range c.IO {
				ins = append(ins, x)
			}
			sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
			for _, run := range []struct {
				name string
				inst *interp.Instance
			}{{"original", orig}, {"empty analysis", elided}, {"every hook", hooked}} {
				for _, in := range ins {
					want := c.IO[in]
					got, err := run.inst.Invoke("run", interp.I32(in))
					if err != nil {
						t.Fatalf("%s: run(%d): %v", run.name, in, err)
					}
					if interp.AsI32(got[0]) != want {
						t.Fatalf("%s: run(%d) = %d, want %d", run.name, in, interp.AsI32(got[0]), want)
					}
				}
			}
		})
	}
}
