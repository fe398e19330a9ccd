package static

import (
	"fmt"
	"reflect"
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/binary"
	"wasabi/internal/polybench"
	"wasabi/internal/spectest"
	"wasabi/internal/synthapp"
	"wasabi/internal/wasm"
)

// planSeeds returns the encoded seed modules of FuzzPlanFor: the spectest
// corpus, every PolyBench kernel and one small synthetic application.
func planSeeds() ([][]byte, error) {
	var mods []*wasm.Module
	for _, c := range spectest.Corpus() {
		mods = append(mods, c.Module())
	}
	for _, k := range polybench.Kernels() {
		mods = append(mods, k.Module(8))
	}
	mods = append(mods, synthapp.Generate(synthapp.Config{TargetBytes: 4000, Seed: 1, Helpers: 3}))
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
// never panics, it gives the same plan, or fails with the same error, at
// one worker as at four, it fails exactly where Analyze fails and with the
// same error, and where both succeed its plan is Analyze's and one builder
// taken through every function builds the CFGs Analyze builds. Analyze
// builds each CFG in memory of its own, so the last two checks catch a
// reused builder buffer that carries state from one function to the next.
// Run with `go test -fuzz=FuzzPlanFor`; the seed corpus alone runs as a
// regular test.
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
		ma, analyzeErr := Analyze(m)
		for _, hooks := range hookSets {
			seq, seqErr := planFor(m, hooks, 1)
			p, err := planFor(m, hooks, 4)
			if (err == nil) != (seqErr == nil) || err != nil && err.Error() != seqErr.Error() {
				t.Fatalf("hooks %s: 4 workers: %v; 1 worker: %v", hooks, err, seqErr)
			}
			if !reflect.DeepEqual(p, seq) {
				t.Fatalf("hooks %s: 4 workers plan differently than 1", hooks)
			}
			if (err == nil) != (analyzeErr == nil) || err != nil && err.Error() != analyzeErr.Error() {
				t.Fatalf("hooks %s: PlanFor: %v; Analyze: %v", hooks, err, analyzeErr)
			}
			if err != nil {
				continue
			}
			if want := ma.Plan(hooks); !reflect.DeepEqual(p, want) {
				t.Fatalf("hooks %s: PlanFor differs from Analyze(m).Plan", hooks)
			}
		}
		if analyzeErr != nil {
			return
		}
		var b builder
		for di := range m.Funcs {
			if err := b.buildFunc(m, ma.ix.NumImportedFuncs(), di); err != nil {
				t.Fatalf("defined func %d: reused builder failed where Analyze succeeded: %v", di, err)
			}
			if !reflect.DeepEqual(b.g, *ma.Funcs[di].CFG) {
				t.Fatalf("defined func %d: reused builder's CFG differs from Analyze's", di)
			}
		}
	})
}
