package static

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/binary"
	"wasabi/internal/polybench"
	"wasabi/internal/spectest"
	"wasabi/internal/synthapp"
	"wasabi/internal/wasm"
)

// planSeeds returns the encoded seed modules of FuzzPlanFor: the spectest
// corpus, every PolyBench kernel, one small synthetic application, and a
// function with a branch followed by one without any edge, whose empty
// successor list a reused builder holds in a non-nil slice.
func planSeeds() ([][]byte, error) {
	var mods []*wasm.Module
	for _, c := range spectest.Corpus() {
		mods = append(mods, c.Module())
	}
	for _, k := range polybench.Kernels() {
		mods = append(mods, k.Module(8))
	}
	mods = append(mods, synthapp.Generate(synthapp.Config{TargetBytes: 4000, Seed: 1, Helpers: 3}))
	mods = append(mods, &wasm.Module{Types: []wasm.FuncType{{}}, Funcs: []wasm.Func{
		{Body: []wasm.Instr{wasm.BlockInstr(wasm.BlockEmpty), wasm.Br(0), wasm.End(), wasm.End()}},
		{Body: []wasm.Instr{wasm.End()}},
	}})
	seeds := make([][]byte, len(mods))
	for i, m := range mods {
		data, err := binary.Encode(m)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", i, err)
		}
		seeds[i] = data
	}
	return seeds, nil
}

// FuzzPlanFor checks the plan path on every module the decoder accepts: it
// never panics, and it gives the same plan, or fails with the same error, at
// one worker as at four. Where it succeeds, one builder taken through every
// function builds the CFG a fresh builder builds for that function alone,
// which catches a reused builder buffer that carries state from one
// function to the next. Run with `go test -fuzz=FuzzPlanFor`; the seed
// corpus alone runs as a regular test.
func FuzzPlanFor(f *testing.F) {
	seeds, err := planSeeds()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	hookSets := []analysis.HookSet{analysis.Set(analysis.KindBlockProbe), analysis.AllHooks}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := binary.Decode(data)
		if err != nil {
			return // rejected: fine
		}
		for _, hooks := range hookSets {
			seq, seqErr := planFor(m, hooks, 1)
			p, err := planFor(m, hooks, 4)
			if (err == nil) != (seqErr == nil) || err != nil && err.Error() != seqErr.Error() {
				t.Fatalf("hooks %s: 4 workers: %v; 1 worker: %v", hooks, err, seqErr)
			}
			if !reflect.DeepEqual(p, seq) {
				t.Fatalf("hooks %s: 4 workers plan differently than 1", hooks)
			}
			if err != nil {
				return
			}
		}
		numImports := m.NumImportedFuncs()
		var reused builder
		for di := range m.Funcs {
			var fresh builder
			if err := fresh.buildFunc(m, numImports, di); err != nil {
				t.Fatalf("defined func %d: a fresh builder failed where the plan succeeded: %v", di, err)
			}
			if err := reused.buildFunc(m, numImports, di); err != nil {
				t.Fatalf("defined func %d: the reused builder failed where a fresh one succeeded: %v", di, err)
			}
			if !sameCFG(&reused.g, &fresh.g) {
				t.Fatalf("defined func %d: the reused builder's CFG differs from a fresh builder's", di)
			}
		}
	})
}

// sameCFG reports whether a and b hold the same graph. Unlike
// reflect.DeepEqual it takes a nil slice for an empty one: a fresh builder
// leaves the successors of a function without edges nil, a reused one
// empty.
func sameCFG(a, b *CFG) bool {
	return slices.Equal(a.Blocks, b.Blocks) && slices.Equal(a.Reachable, b.Reachable) &&
		slices.Equal(a.blockAt, b.blockAt) && slices.Equal(a.succOff, b.succOff) && slices.Equal(a.succ, b.succ)
}
