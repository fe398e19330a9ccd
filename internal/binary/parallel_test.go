package binary

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"wasabi/internal/builder"
	"wasabi/internal/leb128"
	"wasabi/internal/polybench"
	"wasabi/internal/spectest"
	"wasabi/internal/synthapp"
	"wasabi/internal/wasm"
)

// corpusModules are the modules the worker-count tests run over: the
// spectest corpus, every PolyBench kernel and two synthetic applications.
func corpusModules() map[string]*wasm.Module {
	mods := map[string]*wasm.Module{}
	for _, c := range spectest.Corpus() {
		mods["spectest/"+c.Name] = c.Module()
	}
	for _, k := range polybench.Kernels() {
		mods["polybench/"+k.Name] = k.Module(8)
	}
	for seed := uint64(1); seed <= 2; seed++ {
		mods[fmt.Sprintf("synthapp/%d", seed)] = synthapp.Generate(synthapp.Config{TargetBytes: 128 << 10, Seed: seed})
	}
	return mods
}

// TestWorkerCountInvariance checks that encoding gives the same bytes, and
// decoding DeepEqual modules, with one worker and with eight.
func TestWorkerCountInvariance(t *testing.T) {
	for name, m := range corpusModules() {
		one, err := encode(m, 1)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		eight, err := encode(m, 8)
		if err != nil {
			t.Fatalf("%s: encode at 8 workers: %v", name, err)
		}
		if !bytes.Equal(one, eight) {
			t.Fatalf("%s: 8 workers encode different bytes than 1", name)
		}
		d1, err := decode(one, 1)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		d8, err := decode(one, 8)
		if err != nil {
			t.Fatalf("%s: decode at 8 workers: %v", name, err)
		}
		if !reflect.DeepEqual(d1, d8) {
			t.Fatalf("%s: 8 workers decode a different module than 1", name)
		}
	}
}

// rawModule encodes a module of len(entries) functions of type [] -> []
// whose code entries are given verbatim: each entry is a size prefix, then
// a body.
func rawModule(entries ...[]byte) []byte {
	out := append([]byte(nil), header...)
	out = appendSection(out, secType, []byte{1, 0x60, 0, 0})
	funcs := leb128.AppendU32(nil, uint32(len(entries)))
	for range entries {
		funcs = append(funcs, 0)
	}
	out = appendSection(out, secFunction, funcs)
	code := leb128.AppendU32(nil, uint32(len(entries)))
	for _, e := range entries {
		code = append(code, e...)
	}
	return appendSection(out, secCode, code)
}

// entry is a well-formed code entry: its size prefix, then body.
func entry(body ...byte) []byte { return append([]byte{byte(len(body))}, body...) }

// TestLowestBadBodyReported checks that, with two bad bodies, the decoder
// reports the lower-index one at every worker count, including when the
// higher one is a length prefix that overruns the section: the scan stops
// there, but the malformed body before it still wins.
func TestLowestBadBodyReported(t *testing.T) {
	good := entry(0, byte(wasm.OpEnd))
	badOp := entry(0, 0xFE, byte(wasm.OpEnd)) // unknown opcode
	unterminated := entry(0, byte(wasm.OpNop))
	overrun := []byte{0x7F, 0, byte(wasm.OpEnd)} // claims 127 bytes, has 2
	cases := []struct {
		name    string
		entries [][]byte
		want    string
	}{
		{"two malformed", [][]byte{good, good, good, badOp, good, good, unterminated, good}, "code body 3: binary: unknown opcode"},
		{"malformed then overrun", [][]byte{good, good, unterminated, good, good, overrun}, "code body 2: binary: function body not terminated by end"},
		{"overrun alone", [][]byte{good, good, good, good, good, overrun}, "code body 5 length exceeds section"},
	}
	for _, c := range cases {
		data := rawModule(c.entries...)
		for par := 1; par <= 8; par++ {
			for round := 0; round < 5; round++ {
				_, err := decode(data, par)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("%s, %d workers: got %v, want %q", c.name, par, err, c.want)
				}
			}
		}
	}
}

// TestNameSectionManyFunctions round-trips a module whose 50,000 functions
// are all named, as a toolchain's output names every function: every name
// must survive, and the function-names subsection must list its indices in
// ascending order.
func TestNameSectionManyFunctions(t *testing.T) {
	const n = 50_000
	b := builder.New()
	for i := 0; i < n; i++ {
		b.Func(fmt.Sprintf("f%d", i), nil, nil).Done()
	}
	m := b.Build()
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.FuncNames, m2.FuncNames) {
		t.Fatalf("names lost in the round trip: %d in, %d out", len(m.FuncNames), len(m2.FuncNames))
	}
	idxs := nameSectionIndices(t, data)
	if len(idxs) != n {
		t.Fatalf("name subsection lists %d functions, want %d", len(idxs), n)
	}
	for i := 1; i < len(idxs); i++ {
		if idxs[i] <= idxs[i-1] {
			t.Fatalf("name subsection lists index %d after %d", idxs[i], idxs[i-1])
		}
	}
}

// nameSectionIndices returns the function indices of data's function-names
// subsection, in the order they are encoded.
func nameSectionIndices(t *testing.T, data []byte) []uint32 {
	t.Helper()
	r := &reader{data: data, pos: len(header)}
	for !r.done() {
		id := r.byte()
		size := r.u32()
		sec := &reader{data: r.bytes(int(size))}
		if r.err != nil {
			t.Fatal(r.err)
		}
		if id != secCustom || sec.name() != "name" {
			continue
		}
		for !sec.done() {
			sub := sec.byte()
			body := &reader{data: sec.bytes(int(sec.u32()))}
			if sub != 1 {
				continue
			}
			var idxs []uint32
			for cnt := body.u32(); cnt > 0 && body.err == nil; cnt-- {
				idxs = append(idxs, body.u32())
				body.name()
			}
			if body.err != nil {
				t.Fatal(body.err)
			}
			return idxs
		}
	}
	t.Fatal("no function-names subsection")
	return nil
}

// allocated returns the heap bytes fn allocates (runtime.MemStats
// TotalAlloc around one call).
func allocated(fn func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCodecAllocations pins what Encode and Decode allocate on the 1 MB
// synthetic application. Encode writes every body straight into one output
// buffer of exact size, so it allocates little beyond its output. Decode
// decodes each body into per-worker scratch and copies it out at its exact
// length, so it allocates little beyond the 16-byte instructions it returns.
func TestCodecAllocations(t *testing.T) {
	m := synthapp.Generate(synthapp.Config{TargetBytes: 1 << 20, Seed: 11})
	var data []byte
	var err error
	encAlloc := allocated(func() { data, err = Encode(m) })
	if err != nil {
		t.Fatal(err)
	}
	if limit := uint64(float64(len(data))*1.05) + 64<<10; encAlloc > limit {
		t.Errorf("Encode allocated %d bytes for a %d-byte output (%.2fx), limit %d", encAlloc, len(data), float64(encAlloc)/float64(len(data)), limit)
	}

	var got *wasm.Module
	decAlloc := allocated(func() { got, err = Decode(data) })
	if err != nil {
		t.Fatal(err)
	}
	instrBytes := 0
	for i := range got.Funcs {
		instrBytes += 16 * len(got.Funcs[i].Body)
	}
	if limit := uint64(float64(instrBytes)*1.3) + 256<<10; decAlloc > limit {
		t.Errorf("Decode allocated %d bytes for %d bytes of instructions (%.2fx), limit %d", decAlloc, instrBytes, float64(decAlloc)/float64(instrBytes), limit)
	}
	t.Logf("GOMAXPROCS %d: Encode %.3fx its output, Decode %.3fx its instructions",
		runtime.GOMAXPROCS(0), float64(encAlloc)/float64(len(data)), float64(decAlloc)/float64(instrBytes))
}
