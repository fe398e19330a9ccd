package binary

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/synthapp"
	"wasabi/internal/validate"
)

// fuzzSeeds returns the shared seed inputs of both fuzz targets: valid
// modules (rich + generated), truncations, the bare preamble, a corrupted
// variant, and a hostile length-prefix probe for the preallocation guards.
// The same inputs are checked in under testdata/fuzz/<Target>/ (see
// TestRegenerateFuzzCorpus) so the corpus survives without a fuzzing cache.
func fuzzSeeds() ([][]byte, error) {
	rich, err := Encode(buildRichModule())
	if err != nil {
		return nil, err
	}
	app, err := Encode(synthapp.Generate(synthapp.Config{TargetBytes: 2000, Seed: 1, Helpers: 3}))
	if err != nil {
		return nil, err
	}
	corrupt := append([]byte(nil), rich...)
	for i := 8; i < len(corrupt); i += 7 {
		corrupt[i] ^= 0xA5
	}
	return [][]byte{
		rich,
		app,
		rich[:len(rich)/2],
		{},
		{0x00, 0x61, 0x73, 0x6D, 0x01, 0, 0, 0},
		corrupt,
		hostileNameCountModule(),
		hostileCodeCountModule(),
	}, nil
}

// hostileNameCountModule encodes a module whose name section claims ~4
// billion function names in a few payload bytes: a length-field DoS probe
// for the decoder's preallocation guard.
func hostileNameCountModule() []byte {
	payload := []byte{4, 'n', 'a', 'm', 'e', // custom-section name
		1,                           // name subsection: function names
		5,                           // subsection size
		0xFF, 0xFF, 0xFF, 0xFF, 0xF, // count = 0xFFFFFFFF, no entries
	}
	mod := []byte{0x00, 0x61, 0x73, 0x6D, 0x01, 0, 0, 0, 0x00 /* custom */, byte(len(payload))}
	return append(mod, payload...)
}

// hostileCodeCountModule encodes a module whose code section claims
// 2^32-1 bodies in a few payload bytes: a length-field DoS probe for the
// code section's boundary scan, whose preallocation goes through capHint.
func hostileCodeCountModule() []byte {
	return []byte{0x00, 0x61, 0x73, 0x6D, 0x01, 0, 0, 0,
		0x0A /* code */, 5, 0xFF, 0xFF, 0xFF, 0xFF, 0xF /* count = 0xFFFFFFFF, no bodies */}
}

// FuzzDecode checks the decoder never panics on arbitrary input, that it
// decodes the same module, or fails with the same error, with four workers
// as with one, and that anything it accepts round-trips through the encoder
// and, if it validates, survives full instrumentation. Run with
// `go test -fuzz=FuzzDecode`; the seed corpus alone runs as a regular test.
func FuzzDecode(f *testing.F) {
	seeds, err := fuzzSeeds()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decode(data, 4)
		seq, seqErr := decode(data, 1)
		if (err == nil) != (seqErr == nil) || err != nil && err.Error() != seqErr.Error() {
			t.Fatalf("4 workers: %v; 1 worker: %v", err, seqErr)
		}
		if err != nil {
			return // rejected: fine
		}
		if !reflect.DeepEqual(m, seq) {
			t.Fatal("4 workers decode a different module than 1")
		}
		// Accepted input must re-encode without error.
		out, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded module failed to encode: %v", err)
		}
		// And the re-encoding must decode to something encodable again
		// (idempotence of the canonical form).
		m2, err := Decode(out)
		if err != nil {
			t.Fatalf("canonical form failed to decode: %v", err)
		}
		out2, err := Encode(m2)
		if err != nil {
			t.Fatalf("canonical form failed to re-encode: %v", err)
		}
		if string(out) != string(out2) {
			t.Fatal("canonical encoding not a fixed point")
		}
		// If it validates, the instrumenter must handle it.
		if validate.Module(m) == nil {
			if _, _, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks, SkipValidation: true}); err != nil {
				t.Fatalf("valid module failed to instrument: %v", err)
			}
		}
	})
}

// FuzzInstrumentRoundTrip drives the full pipeline the embedder-facing API
// runs on untrusted bytes: decode → validate → instrument for every hook →
// encode → decode. Any accepted input must survive the whole chain without
// panicking, and the instrumented module must re-decode cleanly (the
// instrumenter's output is itself a well-formed module).
func FuzzInstrumentRoundTrip(f *testing.F) {
	seeds, err := fuzzSeeds()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // rejected: fine
		}
		if validate.Module(m) != nil {
			// Decodable but invalid: the default (validating) instrument
			// path must refuse it — instrumentation is never reached on
			// invalid input.
			if _, _, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks}); err == nil {
				t.Fatal("invalid module was instrumented instead of rejected")
			}
			return
		}
		instrumented, _, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks, SkipValidation: true})
		if err != nil {
			t.Fatalf("valid module failed to instrument: %v", err)
		}
		out, err := Encode(instrumented)
		if err != nil {
			t.Fatalf("instrumented module failed to encode: %v", err)
		}
		if _, err := Decode(out); err != nil {
			t.Fatalf("instrumented encoding failed to decode: %v", err)
		}
	})
}

// TestHostileLengthPrefixes pins the decoder's DoS guards as a plain test:
// inputs whose length fields claim enormous element counts must fail (or
// parse to nothing) quickly without attempting the huge preallocation the
// count asks for — capHint bounds every count-driven make.
func TestHostileLengthPrefixes(t *testing.T) {
	// The hostile name count is advisory-section data: the module decodes,
	// the bogus names are discarded.
	m, err := Decode(hostileNameCountModule())
	if err != nil {
		t.Fatalf("hostile name-count module failed to decode: %v", err)
	}
	if len(m.FuncNames) != 0 {
		t.Errorf("bogus name section produced %d names", len(m.FuncNames))
	}
	// A type section claiming 2^32-1 entries in an empty payload must be
	// rejected as truncated, not preallocated.
	data := []byte{0x00, 0x61, 0x73, 0x6D, 0x01, 0, 0, 0,
		0x01 /* type section */, 5, 0xFF, 0xFF, 0xFF, 0xFF, 0xF}
	if _, err := Decode(data); err == nil {
		t.Error("truncated type section with huge count was accepted")
	}
	// Likewise a code section claiming 2^32-1 bodies: rejected before its
	// boundary scan allocates anything sized by the count.
	var decErr error
	if alloc := allocated(func() { _, decErr = Decode(hostileCodeCountModule()) }); alloc > 64<<10 {
		t.Errorf("hostile code count allocated %d bytes", alloc)
	}
	if decErr == nil {
		t.Error("code section with huge body count was accepted")
	}
}

// TestRegenerateFuzzCorpus verifies the checked-in seed corpus exists under
// testdata/fuzz/<Target>/ (the layout `go test` merges with f.Add seeds);
// run with FUZZ_CORPUS_REGEN=1 to rewrite it after changing fuzzSeeds.
func TestRegenerateFuzzCorpus(t *testing.T) {
	targets := []string{"FuzzDecode", "FuzzInstrumentRoundTrip"}
	if os.Getenv("FUZZ_CORPUS_REGEN") != "" {
		seeds, err := fuzzSeeds()
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range targets {
			dir := filepath.Join("testdata", "fuzz", target)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for i, seed := range seeds {
				body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, target := range targets {
		dir := filepath.Join("testdata", "fuzz", target)
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			t.Errorf("seed corpus missing under %s (regenerate with FUZZ_CORPUS_REGEN=1)", dir)
		}
	}
}
