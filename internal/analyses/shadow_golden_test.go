package analyses_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/interp"
	"wasabi/internal/polybench"
	"wasabi/internal/spectest"
	"wasabi/internal/synthapp"
	"wasabi/internal/wasm"
)

// shadowWorkload is one module run under Taint and under Origin: entry is
// invoked once per argument list in runs (a run that traps still counts,
// since its events reached the analysis), with source and sink as the
// taint configuration.
type shadowWorkload struct {
	name         string
	m            *wasm.Module
	entry        string
	runs         [][]interp.Value
	source, sink int
}

// shadowWorkloads are the spectest corpus (every expected-result input in
// ascending order, then every trapping one), PolyBench gemm at n=8, and a
// synthapp in which the results of func6 reach memory and two arguments of
// a call to func7.
func shadowWorkloads(t *testing.T) []shadowWorkload {
	t.Helper()
	var ws []shadowWorkload
	for _, c := range spectest.Corpus() {
		var ins []int32
		for in := range c.IO {
			ins = append(ins, in)
		}
		sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
		var runs [][]interp.Value
		for _, in := range append(ins, c.TrapsOn...) {
			runs = append(runs, []interp.Value{interp.I32(in)})
		}
		// Only the calls case calls: double (func 0) is the source and
		// square (func 1) the sink.
		ws = append(ws, shadowWorkload{"spectest/" + c.Name, c.Module(), "run", runs, 0, 1})
	}
	gemm, ok := polybench.ByName("gemm")
	if !ok {
		t.Fatal("gemm kernel missing")
	}
	ws = append(ws, shadowWorkload{"polybench/gemm-8", gemm.Module(8), "kernel", [][]interp.Value{nil}, 0, 0})
	app := synthapp.Generate(synthapp.Config{TargetBytes: 12000, Seed: 7, Helpers: 10})
	ws = append(ws, shadowWorkload{"synthapp/12000-seed7", app, "main", [][]interp.Value{{interp.I32(6)}}, 6, 7})
	return ws
}

// shadowReports runs every workload under a Taint and an Origin of its own
// and returns the callback sets of both analyses, then per workload and
// analysis the runs that trapped and the report.
func shadowReports(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "caps taint %#x\n", uint32(analysis.CapsOf(analyses.NewTaint())))
	fmt.Fprintf(&buf, "caps origin %#x\n", uint32(analysis.CapsOf(analyses.NewOrigin())))
	engine, err := wasabi.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range shadowWorkloads(t) {
		taint := analyses.NewTaint()
		taint.Sources[w.source] = true
		taint.Sinks[w.sink] = true
		for _, a := range []interface{ Report(io.Writer) }{taint, analyses.NewOrigin()} {
			compiled, err := engine.InstrumentFor(w.m, a)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			sess, err := compiled.NewSession(a)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := sess.Instantiate("", polybench.HostImports(nil))
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			fmt.Fprintf(&buf, "== %s %T ==\n", w.name, a)
			for _, args := range w.runs {
				if _, err := inst.Invoke(w.entry, args...); err != nil {
					fmt.Fprintf(&buf, "%s%v: %v\n", w.entry, args, err)
				}
			}
			sess.Close()
			a.Report(&buf)
		}
	}
	return buf.Bytes()
}

// TestShadowGolden pins the behaviour of the shadow operand stack Taint and
// Origin share: the callbacks each implements (analysis.CapsOf) and each
// one's report on every workload must equal testdata/shadow.golden byte for
// byte. The file was generated before the two analyses shared their shadow
// stack; nothing regenerates it.
func TestShadowGolden(t *testing.T) {
	got := shadowReports(t)
	path := filepath.Join("testdata", "shadow.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return fmt.Sprintf("%q", lines[i])
		}
		return "end of report"
	}
	t.Fatalf("%s:%d: reports differ\n got: %s\nwant: %s", path, i+1, line(gl), line(wl))
}
