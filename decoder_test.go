package wasabi_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/interp"
	"wasabi/internal/polybench"
	"wasabi/internal/sink"
	"wasabi/internal/spectest"
	"wasabi/internal/synthapp"
	"wasabi/internal/wasm"
)

// decoderWorkload is one module run both ways by the decoder tests.
type decoderWorkload struct {
	name  string
	m     *wasm.Module
	entry string
	args  []interp.Value
}

// decoderWorkloads are PolyBench gemm and a synthapp whose run executes a
// br_table, an indirect call, i64 values and a call of more than three
// arguments (checkRecordShapes).
func decoderWorkloads(t *testing.T) []decoderWorkload {
	t.Helper()
	gemm, ok := polybench.ByName("gemm")
	if !ok {
		t.Fatal("gemm kernel missing")
	}
	return []decoderWorkload{
		{"gemm", gemm.Module(4), "kernel", nil},
		{"synthapp", synthapp.Generate(synthapp.Config{TargetBytes: 6000, Seed: 3, Helpers: 6}), "main", []interp.Value{interp.I32(6)}},
	}
}

// runCallbacks runs w in a callback session of a and returns a's report.
func runCallbacks(t *testing.T, compiled *wasabi.CompiledAnalysis, w decoderWorkload, a any) string {
	t.Helper()
	sess, err := compiled.NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	inst, err := sess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke(w.entry, w.args...); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	a.(interface{ Report(io.Writer) }).Report(&out)
	return out.String()
}

// runFanout runs w in a Fanout session, hands every batch of one
// subscription to sink on its own goroutine, and returns the batches'
// records, copied.
func runFanout(t *testing.T, compiled *wasabi.CompiledAnalysis, w decoderWorkload, sink func(*wasabi.EventTable) wasabi.EventSink) []wasabi.Event {
	t.Helper()
	sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	fab, err := sess.Fanout()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := fab.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	dec := sink(fab.Table())
	var recs []wasabi.Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			batch, ok := sub.Next()
			if !ok {
				return
			}
			recs = append(recs, batch...)
			dec.Events(batch)
		}
	}()
	inst, err := sess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke(w.entry, w.args...); err != nil {
		t.Fatal(err)
	}
	fab.Close()
	<-done
	if d := fab.Dropped() + sub.Dropped(); d != 0 {
		t.Fatalf("lossless subscription dropped %d records", d)
	}
	return recs
}

// nopDecoder decodes into an analysis without callbacks.
func nopDecoder(tbl *wasabi.EventTable) wasabi.EventSink { return wasabi.NewDecoder(tbl, struct{}{}) }

// checkRecordShapes fails unless recs hold a br_table, an indirect call, an
// i64 value and a call of more than three arguments.
func checkRecordShapes(t *testing.T, compiled *wasabi.CompiledAnalysis, recs []wasabi.Event) {
	t.Helper()
	tbl := compiled.EventTable()
	var brTable, indirect, i64, wideCall bool
	for i := range recs {
		e := &recs[i]
		if e.Hook == analysis.EventCont || e.Hook == analysis.EventSynth {
			continue
		}
		spec := tbl.Spec(e)
		brTable = brTable || e.Kind == analysis.KindBrTable
		indirect = indirect || spec.Indirect
		wideCall = wideCall || e.Kind == analysis.KindCall && !spec.Post && len(spec.ValueTypes()) > 3
		for _, vt := range spec.Types {
			i64 = i64 || vt == wasm.I64
		}
	}
	if !(brTable && indirect && i64 && wideCall) {
		t.Fatalf("records: br_table %v, call_indirect %v, i64 %v, call of more than 3 args %v; want all",
			brTable, indirect, i64, wideCall)
	}
}

// TestDecoderServesEveryAnalysis: every bundled analysis with a report
// prints the same bytes as a callback session and as a Fanout subscriber
// fed through the record decoder, which hands it the br_table targets and
// the module information callbacks receive.
func TestDecoderServesEveryAnalysis(t *testing.T) {
	for _, w := range decoderWorkloads(t) {
		compiled, err := mustEngine(t).Instrument(w.m, wasabi.AllCaps)
		if err != nil {
			t.Fatal(err)
		}
		if w.name == "synthapp" {
			checkRecordShapes(t, compiled, runFanout(t, compiled, w, nopDecoder))
		}
		for _, name := range analyses.Names() {
			if _, ok := analyses.Registry[name]().(interface{ Report(io.Writer) }); !ok {
				continue
			}
			t.Run(w.name+"/"+name, func(t *testing.T) {
				want := runCallbacks(t, compiled, w, analyses.Registry[name]())
				a := analyses.Registry[name]()
				runFanout(t, compiled, w, func(tbl *wasabi.EventTable) wasabi.EventSink {
					return wasabi.NewDecoder(tbl, a)
				})
				var got bytes.Buffer
				a.(interface{ Report(io.Writer) }).Report(&got)
				if want == "" {
					t.Fatal("callback report is empty")
				}
				if got.String() != want {
					t.Errorf("decoded report differs from the callback report:\n--- callback\n%s\n--- decoder\n%s", want, got.String())
				}
			})
		}
	}
}

// TestDecoderZeroAllocs: once its buffers have grown, the decoder decodes a
// batch holding every record of a workload's run — call vectors with
// continuations and br_table target tables included — without allocating,
// into an analysis that ignores the arguments and into one that counts them.
func TestDecoderZeroAllocs(t *testing.T) {
	for _, w := range decoderWorkloads(t) {
		compiled, err := mustEngine(t).Instrument(w.m, wasabi.AllCaps)
		if err != nil {
			t.Fatal(err)
		}
		batch := runFanout(t, compiled, w, nopDecoder)
		for _, a := range []any{&analyses.Empty{}, analyses.NewInstructionMix()} {
			dec := wasabi.NewDecoder(compiled.EventTable(), a)
			if allocs := testing.AllocsPerRun(10, func() { dec.Events(batch) }); allocs != 0 {
				t.Errorf("%s: %T: %.1f allocs per %d-record batch, want 0", w.name, a, allocs, len(batch))
			}
		}
	}
}

// TestInstructionMixFoldsEqualNames: InstructionMix finds a count by the
// address of its key string. A table read from a segment file maps its op
// names back to opcodes, so a replay counts into the live run's slots, and
// a copy of a name counts into a slot of its own. One mix fed a live run,
// its replayed segment and then a copy of each name once must still report
// every name once, at twice its live count plus one.
func TestInstructionMixFoldsEqualNames(t *testing.T) {
	for _, w := range decoderWorkloads(t) {
		compiled, err := mustEngine(t).Instrument(w.m, wasabi.AllCaps)
		if err != nil {
			t.Fatal(err)
		}
		mix := analyses.NewInstructionMix()
		recs := runFanout(t, compiled, w, func(tbl *wasabi.EventTable) wasabi.EventSink {
			return wasabi.NewDecoder(tbl, mix)
		})
		live := mix.Counts()

		path := filepath.Join(t.TempDir(), w.name+".evlog")
		rec, err := sink.Create(path, compiled.EventTable())
		if err != nil {
			t.Fatal(err)
		}
		rec.Events(recs)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := sink.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		r.Serve(wasabi.NewDecoder(r.Table(), mix), 0)
		r.Close()
		for op := range live {
			mix.Unary(wasabi.Location{}, strings.Clone(op), wasabi.Value{}, wasabi.Value{})
		}

		var out bytes.Buffer
		mix.Report(&out)
		seen := map[string]bool{}
		for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
			var n uint64
			var op string
			if _, err := fmt.Sscanf(line, "%d %s", &n, &op); err != nil {
				t.Fatalf("%s: report line %q: %v", w.name, line, err)
			}
			if seen[op] {
				t.Errorf("%s: %s reported twice", w.name, op)
			}
			seen[op] = true
			if n != 2*live[op]+1 {
				t.Errorf("%s: %s counted %d, want twice the live %d plus one", w.name, op, n, live[op])
			}
		}
		if len(seen) != len(live) {
			t.Errorf("%s: report has %d names, live run %d", w.name, len(seen), len(live))
		}
	}
}

// TestSegmentTableRoundTrip: a segment written from an instrumentation's
// EventTable reopens with every spec equal field by field (types by
// content), for every hook of the spectest corpus, gemm and a synthapp.
func TestSegmentTableRoundTrip(t *testing.T) {
	gemm, _ := polybench.ByName("gemm")
	mods := map[string]*wasm.Module{
		"gemm":     gemm.Module(8),
		"synthapp": synthapp.Generate(synthapp.Config{TargetBytes: 100_000, Seed: 1}),
	}
	for _, c := range spectest.Corpus() {
		mods[c.Name] = c.Module()
	}
	for name, m := range mods {
		compiled, err := mustEngine(t).Instrument(m, wasabi.AllCaps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join(t.TempDir(), "table.evlog")
		w, err := sink.Create(path, compiled.EventTable())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, err := sink.Open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, got := compiled.EventTable().Specs, r.Table().Specs
		r.Close()
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("%s: %d specs reopened, want %d", name, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Kind != w.Kind || g.Op != w.Op || g.Block != w.Block ||
				!slices.Equal(g.Types, w.Types) || g.Indirect != w.Indirect || g.Post != w.Post {
				t.Errorf("%s: spec %d reopened as %+v, want %+v", name, i, g, w)
			}
		}
	}
}

// TestRecordingIsDeterministic records the run wasabi-run -workload
// synthapp -record makes twice: the two segment files must be identical, and
// the reserved byte 3 of every record zero.
func TestRecordingIsDeterministic(t *testing.T) {
	m := synthapp.Generate(synthapp.Config{TargetBytes: 100_000, Seed: 1})
	var files [2][]byte
	for i := range files {
		a := analyses.NewInstructionMix()
		compiled, err := mustEngine(t).InstrumentFor(m, a)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := compiled.NewSession(a)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := sess.Stream()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "synthapp.evlog")
		rec, err := sink.Create(path, stream.Table())
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			stream.Serve(rec)
		}()
		inst, err := sess.Instantiate("main", polybench.HostImports(nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Invoke("main", interp.I32(32)); err != nil {
			t.Fatal(err)
		}
		stream.Close()
		<-done
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		sess.Close()
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("two recordings of one run differ (%d and %d bytes)", len(files[0]), len(files[1]))
	}
	data := files[0]
	start := (64 + int(binary.LittleEndian.Uint32(data[28:])) + 63) &^ 63
	if (len(data)-start)%40 != 0 || len(data)-start < 40*1000 {
		t.Fatalf("record region of %d bytes from %d", len(data)-start, start)
	}
	for off := start; off < len(data); off += 40 {
		if data[off+3] != 0 {
			t.Fatalf("record %d: reserved byte is %#x", (off-start)/40, data[off+3])
		}
	}
}
