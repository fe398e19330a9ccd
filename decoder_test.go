package wasabi_test

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/interp"
	"wasabi/internal/polybench"
	"wasabi/internal/sink"
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
// address of its key string, and a table read from a segment file holds op
// names of its own, equal to the live table's but elsewhere in memory. One
// mix fed a live run and then its replayed segment must still report every
// name once, at twice its live count.
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
			if n != 2*live[op] {
				t.Errorf("%s: %s counted %d, want twice the live %d", w.name, op, n, live[op])
			}
		}
		if len(seen) != len(live) {
			t.Errorf("%s: report has %d names, live run %d", w.name, len(seen), len(live))
		}
	}
}
