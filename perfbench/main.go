// Command perfbench is the repository's benchmark: it runs one seeded
// workload through the public wasabi API for a fixed time, checks every
// output against a reference that shares no code with the path under test,
// and prints the metrics named in BENCHMARK.json.
//
//	bash perfbench/run.sh --workload instrument --seed 1 --seconds 30 --trace 0
//
// Run it from the repository root, where it reads BENCHMARK.json. With
// --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 the timed phase runs once more with spans around
// every call into a layer and the last line carries the per-layer metrics.
// See README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workloads maps --workload names to their runners.
var workloads = map[string]func(*bench) error{
	"instrument": runInstrumentWorkload,
	"kernels":    runKernelsWorkload,
	"service":    runServiceWorkload,
}

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "workload to run: instrument, kernels or service")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench-runs"), "directory for segment files, spans and result records")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	def, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, res, err := runOnce(def, *workload, *seed, *seconds, *trace == 1, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.printReport(os.Stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runOnce runs one workload, checks that it reported its metrics, and
// writes its record under dir.
func runOnce(def *benchSpec, workload string, seed uint64, seconds float64, traced bool, dir string) (*bench, *result, error) {
	b, err := newBench(workload, seed, seconds, traced, dir)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(b.scratch)
	if err := workloads[workload](b); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", workload, err)
	}
	res, err := b.result(def)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", workload, err)
	}
	if err := b.writeRecord(res); err != nil {
		return nil, nil, err
	}
	return b, res, nil
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the runner reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the metrics the mode reports. Every end-to-end metric
// must have been measured; a per-layer metric whose layer the workload never
// calls reads 0.
func (b *bench) result(def *benchSpec) (*result, error) {
	list := def.EndToEnd
	if b.traced {
		list = def.PerLayer
		names := make([]string, len(list))
		for i, m := range list {
			names[i] = m.Name
		}
		b.setSpanMetrics(names)
	}
	res := &result{
		Attempted: b.attempted,
		Failed:    b.failed,
		Correct:   b.failed == 0 && b.attempted > 0,
		Metrics:   make(map[string]metricValue, len(list)),
	}
	var missing []string
	for _, m := range list {
		v, ok := b.metrics[m.Name]
		if !ok && !b.traced {
			missing = append(missing, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation ran within %gs", b.seconds)
	}
	return res, nil
}

// writeRecord stores the full record of the run (environment stamp, seeded
// parameters, metrics, every round's figures, failures, per-kernel rows)
// and, for a traced run, the spans.
func (b *bench) writeRecord(res *result) error {
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(b.dir, fmt.Sprintf("%s-seed%d-trace%d", b.workload, b.seed, boolInt(b.traced)))
	rec := map[string]any{
		"env":      b.env,
		"workload": b.workload,
		"params":   b.params,
		"result":   res,
		"rounds":   b.rounds,
		"failures": b.failures,
		"rows":     b.rows,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return err
	}
	if b.tr != nil {
		return b.tr.writeJSONL(base + ".spans.jsonl")
	}
	return nil
}

// printReport prints the human-readable part of the output: the environment
// stamp, the seeded parameters, extra rows, failures and every metric.
func (b *bench) printReport(w *os.File, res *result) {
	env, _ := json.Marshal(b.env)
	params, _ := json.Marshal(b.params)
	fmt.Fprintf(w, "# env %s\n# params %s\n", env, params)
	for _, r := range b.rows {
		fmt.Fprintf(w, "# %s\n", r)
	}
	for _, f := range b.failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-44s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "# attempted %d, failed %d\n", res.Attempted, res.Failed)
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}
