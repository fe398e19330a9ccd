package wasabi_test

// TestFig9BaselineGuard is CI's interpreter-performance smoke: it re-measures
// the Fig 9 baseline (uninstrumented gemm on the interpreter) plus the two
// headline instrumented configurations (`binary` and `all` hooks, empty
// analysis) and fails when the baseline ns/op or either hook ratio has
// regressed more than 2x against BENCH_fig9.json, a frozen record no tool
// rewrites (the tracked numbers come from perfbench). The 2x
// margin absorbs runner-to-runner variance while still catching a real
// dispatch-loop or hook-dispatch regression. Gated behind FIG9_GUARD so
// ordinary `go test` runs stay timing-independent.

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/interp"
	"wasabi/internal/polybench"
)

func TestFig9BaselineGuard(t *testing.T) {
	if os.Getenv("FIG9_GUARD") == "" {
		t.Skip("set FIG9_GUARD=1 to run the Fig 9 regression guard")
	}
	data, err := os.ReadFile("BENCH_fig9.json")
	if err != nil {
		t.Fatalf("BENCH_fig9.json missing (it is frozen history: restore it from git): %v", err)
	}
	var report struct {
		BaselineNsPerOp float64 `json:"baseline_ns_per_op"`
		Hooks           map[string]struct {
			Ratio float64 `json:"ratio"`
		} `json:"hooks"`
		Stream struct {
			EventsPerSec float64 `json:"events_per_sec"`
			BatchSize    int     `json:"batch_size"`
		} `json:"stream"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("BENCH_fig9.json: %v", err)
	}
	if report.BaselineNsPerOp <= 0 {
		t.Fatal("BENCH_fig9.json has no recorded baseline")
	}

	k, ok := polybench.ByName("gemm")
	if !ok {
		t.Fatal("gemm kernel missing")
	}
	measure := func(inst *interp.Instance) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := inst.Invoke("kernel"); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(r.NsPerOp())
	}

	inst, err := interp.Instantiate(k.Module(16), polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	baseline := measure(inst)
	limit := 2 * report.BaselineNsPerOp
	t.Logf("Fig9 baseline: measured %.0f ns/op, recorded %.0f ns/op (limit %.0f)", baseline, report.BaselineNsPerOp, limit)
	if baseline > limit {
		t.Errorf("Fig9 baseline regressed >2x: %.0f ns/op vs recorded %.0f ns/op", baseline, report.BaselineNsPerOp)
	}

	// Hook-dispatch guard: the binary and all ratios against the same-run
	// baseline, compared to the recorded ratios. Ratios divide out machine
	// speed, so the 2x margin here watches the dispatch path specifically.
	for _, cfg := range []struct {
		name string
		set  analysis.HookSet
	}{
		{"binary", analysis.Set(analysis.KindBinary)},
		{"all", analysis.AllHooks},
	} {
		recorded, ok := report.Hooks[cfg.name]
		if !ok || recorded.Ratio <= 0 {
			t.Errorf("BENCH_fig9.json has no recorded %q ratio", cfg.name)
			continue
		}
		compiled, err := mustEngine(t).InstrumentHooks(k.Module(16), cfg.set)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := compiled.NewSession(&analyses.Empty{})
		if err != nil {
			t.Fatal(err)
		}
		hinst, err := sess.Instantiate("", polybench.HostImports(nil))
		if err != nil {
			t.Fatal(err)
		}
		ratio := measure(hinst) / baseline
		rlimit := 2 * recorded.Ratio
		t.Logf("Fig9 %s: measured ratio %.2fx, recorded %.2fx (limit %.2fx)", cfg.name, ratio, recorded.Ratio, rlimit)
		if ratio > rlimit {
			t.Errorf("Fig9 %s ratio regressed >2x: %.2fx vs recorded %.2fx", cfg.name, ratio, recorded.Ratio)
		}
	}

	// Event-stream guard: packed-record delivery (all hooks, consumer on its
	// own goroutine, default batch size) must stay within 2x of the recorded
	// events/sec. The consumer only counts, like the recorded measurement —
	// this guards the encode/hand-off pipeline, not any analysis body.
	recorded := report.Stream.EventsPerSec
	if recorded <= 0 {
		t.Fatal("BENCH_fig9.json has no recorded stream events/sec")
	}
	engine := mustEngine(t)
	compiled, err := engine.Instrument(k.Module(16), wasabi.AllCaps)
	if err != nil {
		t.Fatal(err)
	}
	sink := &guardSink{}
	sess, err := compiled.NewSession(sink)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	stream, err := sess.Stream()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		stream.Serve(sink)
	}()
	sinst, err := sess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	invokes := 0
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sinst.Invoke("kernel"); err != nil {
				b.Fatal(err)
			}
			invokes++
		}
	})
	stream.Close()
	<-done
	eventsPerSec := float64(sink.events) / float64(invokes) / float64(r.NsPerOp()) * 1e9
	slimit := recorded / 2
	t.Logf("Fig9 stream: measured %.1f M events/s, recorded %.1f M events/s (limit %.1f M)",
		eventsPerSec/1e6, recorded/1e6, slimit/1e6)
	if eventsPerSec < slimit {
		t.Errorf("Fig9 stream events/sec regressed >2x: %.0f vs recorded %.0f", eventsPerSec, recorded)
	}
}

// TestFig9FuelOverheadGuard is the zero-overhead-when-disabled guard of the
// containment layer: fuel metering compiles to guard instructions only when
// enabled, so disabling it must cost nothing — within 5% of the frozen
// BENCH_fig9.json fuel reference. A bound that tight cannot ride on absolute
// ns/op across binaries: identical interpreter code measures up to ~20%
// apart between the bench tool and the test binary (code-layout effects on
// the tight dispatch loop), which is exactly why TestFig9BaselineGuard uses
// 2x margins. So the 5% comparison is made on the unmetered/metered ratio —
// numerator and denominator come from the same binary in the same run, so
// layout and machine drift cancel, while a stray containment check leaking
// into the disabled dispatch path moves the ratio straight up (unmetered
// drifts toward metered). Both sides are minimum-of-N measurements, as the
// frozen side was when it was recorded. The log line reports the same
// unmetered/metered ratio and fuel per kernel. Gated behind FIG9_GUARD like
// the other timing guards.
func TestFig9FuelOverheadGuard(t *testing.T) {
	if os.Getenv("FIG9_GUARD") == "" {
		t.Skip("set FIG9_GUARD=1 to run the fuel-overhead guard")
	}
	data, err := os.ReadFile("BENCH_fig9.json")
	if err != nil {
		t.Fatalf("BENCH_fig9.json missing (it is frozen history: restore it from git): %v", err)
	}
	var report struct {
		Fuel struct {
			UnmeteredNsPerOp float64 `json:"unmetered_ns_per_op"`
			MeteredNsPerOp   float64 `json:"metered_ns_per_op"`
			Ratio            float64 `json:"ratio"`
			FuelPerKernel    uint64  `json:"fuel_per_kernel"`
		} `json:"fuel"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("BENCH_fig9.json: %v", err)
	}
	if report.Fuel.UnmeteredNsPerOp <= 0 || report.Fuel.MeteredNsPerOp <= 0 {
		t.Fatal("BENCH_fig9.json has no recorded fuel section (it is frozen history: restore it from git)")
	}

	k, ok := polybench.ByName("gemm")
	if !ok {
		t.Fatal("gemm kernel missing")
	}
	gm := k.Module(16)
	// A 5% bound cannot ride on one testing.Benchmark sample — scheduler
	// noise alone swings single runs by ~10%. Noise only ever adds time, so
	// the minimum over a few runs converges on the true cost.
	measure := func(inst *interp.Instance, refuel bool) float64 {
		best := math.Inf(1)
		for run := 0; run < 5; run++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if refuel {
						inst.SetFuel(1 << 40)
					}
					if _, err := inst.Invoke("kernel"); err != nil {
						b.Fatal(err)
					}
				}
			})
			if ns := float64(r.NsPerOp()); ns < best {
				best = ns
			}
		}
		return best
	}

	plain, err := interp.Instantiate(gm, polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	unmetered := measure(plain, false)

	// Metered instance: one consumption sample first — recorded fuel/kernel
	// must reproduce exactly (deterministic metering), regardless of timing.
	metered, err := interp.InstantiateWith(nil, "", gm, polybench.HostImports(nil),
		interp.Config{Guarded: true, Fuel: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := metered.Invoke("kernel"); err != nil {
		t.Fatal(err)
	}
	perKernel := uint64(1<<40) - metered.Fuel()
	if recorded := report.Fuel.FuelPerKernel; recorded != 0 && perKernel != recorded {
		t.Errorf("fuel consumption not deterministic across trees: %d fuel/kernel vs recorded %d",
			perKernel, recorded)
	}
	meteredNs := measure(metered, true)

	// The 5% fuel-disabled overhead bound, on the layout-immune ratio.
	rel := unmetered / meteredNs
	frozenRel := report.Fuel.UnmeteredNsPerOp / report.Fuel.MeteredNsPerOp
	limit := 1.05 * frozenRel
	t.Logf("Fig9 fuel: unmetered %.0f ns/op, metered %.0f ns/op, unmetered/metered %.3f (frozen %.3f, limit %.3f), %d fuel/kernel",
		unmetered, meteredNs, rel, frozenRel, limit, perKernel)
	if rel > limit {
		t.Errorf("fuel-disabled overhead >5%%: unmetered/metered %.3f vs frozen %.3f — disabled metering is no longer free",
			rel, frozenRel)
	}
	// And a loose absolute sanity bound on the metering cost itself: the
	// per-block guard should cost nowhere near 2x.
	if ratio := meteredNs / unmetered; ratio > 2 {
		t.Errorf("fuel-metering ratio %.2fx exceeds the 2x sanity bound", ratio)
	}
}

// guardSink is the minimal stream consumer of the events/sec guard: it
// counts records and nothing else, as the consumer behind the frozen
// stream figure did.
type guardSink struct{ events uint64 }

func (s *guardSink) StreamCaps() wasabi.Cap      { return wasabi.AllCaps }
func (s *guardSink) Events(batch []wasabi.Event) { s.events += uint64(len(batch)) }
