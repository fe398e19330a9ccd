package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/polybench"
	"wasabi/internal/spectest"
	"wasabi/internal/synthapp"
	"wasabi/internal/wasm"
	"wasabi/internal/wasmgen"
)

// TestInstrumentGolden pins the instrumenter's output: for every module of
// the corpus and every configuration, the sha256 of the encoded instrumented
// module and of its metadata JSON must equal the line in
// testdata/instrument.golden. The configurations are all hooks, all hooks
// under the static plan, and the block-probe set a static-analysis engine
// derives for instruction coverage, under its plan. Hook numbering, hook
// names and signatures, and every emitted instruction feed the hashes, so a
// change to hook selection or keying that the behavioural suites miss still
// fails here. On a mismatch the test prints the whole computed table.
func TestInstrumentGolden(t *testing.T) {
	type module struct {
		name string
		m    *wasm.Module
	}
	var corpus []module
	for _, c := range spectest.Corpus() {
		corpus = append(corpus, module{"spectest/" + c.Name, c.Module()})
	}
	for _, k := range polybench.Kernels() {
		corpus = append(corpus, module{"polybench/" + k.Name + "-8", k.Module(8)})
	}
	for seed := uint64(1); seed <= 2; seed++ {
		corpus = append(corpus, module{fmt.Sprintf("synthapp/200k-seed%d", seed),
			synthapp.Generate(synthapp.Config{TargetBytes: 200_000, Seed: seed})})
	}
	for seed := uint64(1); seed <= 5; seed++ {
		corpus = append(corpus, module{fmt.Sprintf("wasmgen/seed%d", seed), wasmgen.Module(seed)})
	}

	plain, err := wasabi.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	static, err := wasabi.NewEngine(wasabi.WithStaticAnalysis())
	if err != nil {
		t.Fatal(err)
	}
	configs := []struct {
		name       string
		instrument func(*wasm.Module) (*wasabi.CompiledAnalysis, error)
	}{
		{"all", func(m *wasm.Module) (*wasabi.CompiledAnalysis, error) {
			return plain.InstrumentHooks(m, analysis.AllHooks)
		}},
		{"all+plan", func(m *wasm.Module) (*wasabi.CompiledAnalysis, error) {
			return static.InstrumentHooks(m, analysis.AllHooks)
		}},
		{"coverage+plan", func(m *wasm.Module) (*wasabi.CompiledAnalysis, error) {
			return static.InstrumentFor(m, analyses.NewInstructionCoverage())
		}},
	}

	var got bytes.Buffer
	for _, mod := range corpus {
		for _, cfg := range configs {
			ca, err := cfg.instrument(mod.m)
			if err != nil {
				t.Fatalf("%s %s: %v", mod.name, cfg.name, err)
			}
			enc, err := ca.Encode()
			if err != nil {
				t.Fatalf("%s %s: encode: %v", mod.name, cfg.name, err)
			}
			meta, err := json.Marshal(ca.Metadata())
			if err != nil {
				t.Fatalf("%s %s: metadata: %v", mod.name, cfg.name, err)
			}
			fmt.Fprintf(&got, "%s %s %x %x\n", mod.name, cfg.name, sha256.Sum256(enc), sha256.Sum256(meta))
		}
	}

	path := filepath.Join("testdata", "instrument.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("instrumented output differs from %s; computed table:\n%s", path, got.String())
	}
}
