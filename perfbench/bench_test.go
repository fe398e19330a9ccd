package main

import (
	"bytes"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	def, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// TestSelfTimes checks the self-time arithmetic on a hand-built span tree:
// overlapping children count once, a grandchild is charged to its own
// parent only, and a child running past its parent is clipped.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Op: 1, Parent: -1, Start: 0, End: 100},
		{Name: "a", Op: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", Op: 1, Parent: 0, Start: 30, End: 60},
		{Name: "c", Op: 1, Parent: 1, Start: 15, End: 20},
		{Name: "d", Op: 1, Parent: 0, Start: 90, End: 130},
		{Name: "a", Op: 2, Parent: -1, Start: 200, End: 210},
		{Name: "a", Op: -1, Parent: -1, Start: 300, End: 400},
	}
	// root: 100 minus [10,60) and [90,100) = 40; a: 30 minus c's 5.
	want := []int64{40, 25, 30, 5, 40, 10, 100}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	// Ops 1 and 2 ran "a" for 25 ns and 10 ns; the span outside any op is
	// left out.
	if got := layerStats(spans)["a"].selfMS; got != 17.5/1e6 {
		t.Fatalf("a: self %v ms per op, want %v", got, 17.5/1e6)
	}
}

// TestSeedDeterminism checks that a seed gives byte-identical inputs and
// that another seed gives other inputs.
func TestSeedDeterminism(t *testing.T) {
	inputs := func(seed uint64) [][]byte {
		b, err := newBench("", seed, 1, false, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		xs, err := synthInputs(b, "instrument", instrumentLadder[:2])
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			out = append(out, x.data, []byte(x.name), u64bytes(x.args), u64bytes(x.want))
		}
		_, ks, err := kernelInputs(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range ks {
			out = append(out, x.data, []byte(x.name))
		}
		svc, err := newService(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range svc.mods {
			out = append(out, m.data)
		}
		for _, plan := range svc.plans {
			for _, v := range plan {
				out = append(out, []byte{byte(v.mod)}, u64bytes([]uint64{uint64(len(v.ns)), uint64(v.ns[0])}))
			}
		}
		return out
	}
	a, again, other := inputs(1), inputs(1), inputs(2)
	if !slices.EqualFunc(a, again, bytes.Equal) {
		t.Fatal("the same seed gave different inputs")
	}
	if slices.EqualFunc(a, other, bytes.Equal) {
		t.Fatal("seeds 1 and 2 gave the same inputs")
	}
}

func u64bytes(xs []uint64) []byte {
	var out []byte
	for _, x := range xs {
		for i := 0; i < 8; i++ {
			out = append(out, byte(x>>(8*i)))
		}
	}
	return out
}

// exactCounts are the per-layer figures a seed must reproduce exactly.
var exactCounts = []string{
	"core.hook_specs", "core.hook_sites.full", "core.hook_sites.coverage",
	"kernels.events_per_pass", "kernels.fuel_per_pass",
	"service.fuel_per_result", "service.records_per_result", "service.first_result_share",
	"service.funcs_executed_frac", "sink.bytes_per_result",
}

// TestWorkloads runs every workload briefly: traced twice on one seed, whose
// exact counts must agree, and untraced on a second seed. Every run must
// pass its checks; the untraced run must report every end-to-end metric and
// the traced runs together every per-layer metric.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	def := loadTestSpec(t)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var keys []string
	for name := range workloads {
		keys = append(keys, name)
	}
	sort.Strings(names)
	sort.Strings(keys)
	if !slices.Equal(names, keys) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the runner has %v", names, keys)
	}

	layers := map[string]bool{}
	for _, w := range names {
		t.Run(w, func(t *testing.T) {
			run := func(seed uint64, traced bool) *bench {
				b, res, err := runOnce(def, w, seed, 0.2, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("seed %d: %d of %d ops failed: %v", seed, res.Failed, res.Attempted, b.failures)
				}
				return b
			}
			first, second := run(1, true), run(1, true)
			for _, name := range exactCounts {
				if v, w := first.metrics[name], second.metrics[name]; v != w {
					t.Errorf("%s: %v, then %v on the same seed", name, v, w)
				}
			}
			for name := range first.metrics {
				layers[name] = true
			}
			run(2, false)
		})
	}
	for _, m := range def.PerLayer {
		if !layers[m.Name] {
			t.Errorf("no traced workload reports %s", m.Name)
		}
	}
}
