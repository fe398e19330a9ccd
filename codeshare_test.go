package wasabi_test

import (
	"fmt"
	"reflect"
	"testing"

	"wasabi"
	"wasabi/internal/interp"
)

// sessionRun is what one session of the code-sharing test observed.
type sessionRun struct {
	result int32
	counts map[string]int
}

// runSession opens one session of the given kind on compiled, runs main(10)
// and returns what its analysis saw:
//   - "narrow": a load-only callback analysis, so every other hook is a
//     no-op the compiler elides;
//   - "full": a callback analysis implementing every hook;
//   - "stream": a stream of every event, counted per hook.
func runSession(t *testing.T, compiled *wasabi.CompiledAnalysis, kind string) sessionRun {
	t.Helper()
	var a any
	var counts func() map[string]int
	rec := &recordSink{}
	switch kind {
	case "narrow":
		l := &loadOnly{}
		a, counts = l, func() map[string]int { return map[string]int{"load": l.n} }
	case "full":
		r := newRecording()
		a, counts = r, func() map[string]int { return r.counts }
	case "stream":
		a = wasabi.StreamCaps(wasabi.AllCaps)
		counts = func() map[string]int {
			perHook := map[string]int{}
			for _, ev := range rec.recs {
				perHook[fmt.Sprint(ev.Hook)]++
			}
			return perHook
		}
	}
	sess, err := compiled.NewSession(a)
	if err != nil {
		t.Fatalf("%s: NewSession: %v", kind, err)
	}
	defer sess.Close()
	var st *wasabi.Stream
	done := make(chan struct{})
	if kind == "stream" {
		if st, err = sess.Stream(); err != nil {
			t.Fatalf("%s: Stream: %v", kind, err)
		}
		go func() {
			defer close(done)
			st.Serve(rec)
		}()
	}
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatalf("%s: Instantiate: %v", kind, err)
	}
	res, err := inst.Invoke("main", interp.I32(10))
	if err != nil {
		t.Fatalf("%s: main(10): %v", kind, err)
	}
	if st != nil {
		st.Close()
		<-done
	}
	return sessionRun{result: interp.AsI32(res[0]), counts: counts()}
}

// TestSessionsShareCodeOnlyPerShape: sessions of one CompiledAnalysis whose
// live hooks differ compile different threaded code (a no-op hook's call is
// elided), and a later session of the same live hooks links the code an
// earlier one compiled — the full callback session and the stream session
// bind every hook through the same Fast convention, so they share one
// compile. Each session, whatever ran on the CompiledAnalysis before it,
// must observe exactly what the same session observes on a fresh engine.
func TestSessionsShareCodeOnlyPerShape(t *testing.T) {
	m := buildTestModule()
	kinds := []string{"narrow", "full", "stream"}
	want := map[string]sessionRun{}
	for _, kind := range kinds {
		compiled, err := mustEngine(t).Instrument(m, wasabi.AllCaps)
		if err != nil {
			t.Fatal(err)
		}
		want[kind] = runSession(t, compiled, kind)
		if len(want[kind].counts) == 0 {
			t.Fatalf("%s session observed no events", kind)
		}
	}
	reversed := []string{kinds[2], kinds[1], kinds[0]}
	for _, order := range [][]string{kinds, reversed} {
		compiled, err := mustEngine(t).Instrument(m, wasabi.AllCaps)
		if err != nil {
			t.Fatal(err)
		}
		// The first pass compiles each shape; the second links it.
		for pass := 0; pass < 2; pass++ {
			for _, kind := range order {
				if got := runSession(t, compiled, kind); !reflect.DeepEqual(got, want[kind]) {
					t.Errorf("order %v pass %d: %s session observed %+v, a fresh engine gives %+v", order, pass, kind, got, want[kind])
				}
			}
		}
	}
}
