// Command wasabi-bench regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records a paper-vs-measured comparison.
//
// Usage:
//
//	wasabi-bench -experiment table4|rq2|table5|fig8|mono|fig9|all [-full]
//	wasabi-bench -json BENCH_instrument.json -fig9 BENCH_fig9.json
//	wasabi-bench -sessions N    (instrument once, N concurrent sessions)
//	wasabi-bench -stream        (event-stream events/sec + batch-size sweep)
//	wasabi-bench -fuel [-fig9 BENCH_fig9.json]   (metered vs unmetered Fig 9 kernel)
//	wasabi-bench -fanout [-fig9 BENCH_fig9.json] (fan-out scaling + sink throughput)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wasabi/internal/experiments"
)

func main() {
	exp := flag.String("experiment", "all", "table4 | rq2 | table5 | fig8 | mono | fig9 | all")
	full := flag.Bool("full", false, "paper-scale binary sizes (9.6 MB / 39.5 MB; slow)")
	polyN := flag.Int("n", 0, "override PolyBench problem size")
	reps := flag.Int("reps", 0, "override timing repetitions")
	jsonOut := flag.String("json", "", "run the Table 5 / Fig 9 benchmarks and write machine-readable results (e.g. BENCH_instrument.json); skips the experiments")
	fig9Out := flag.String("fig9", "", "write the interpreter's Fig 9 baseline + per-hook ratios (e.g. BENCH_fig9.json); skips the experiments; combines with -json")
	sessions := flag.Int("sessions", 0, "instrument once and run N concurrent sessions off the one CompiledAnalysis; skips the experiments")
	stream := flag.Bool("stream", false, "measure event-stream delivery (events/sec, batch-size sweep) on the Fig 9 workload; skips the experiments")
	fuel := flag.Bool("fuel", false, "measure metered vs unmetered execution of the Fig 9 kernel (containment guard cost); skips the experiments")
	fanout := flag.Bool("fanout", false, "measure fabric fan-out scaling and sink write/replay throughput on the Fig 9 workload; skips the experiments")
	flag.Parse()

	if *fanout {
		if err := runFanout(*fig9Out); err != nil {
			fmt.Fprintf(os.Stderr, "wasabi-bench: -fanout: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *fuel {
		if err := runFuel(*fig9Out); err != nil {
			fmt.Fprintf(os.Stderr, "wasabi-bench: -fuel: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *stream {
		if err := runStream(); err != nil {
			fmt.Fprintf(os.Stderr, "wasabi-bench: -stream: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *sessions > 0 {
		if err := runSessions(*sessions); err != nil {
			fmt.Fprintf(os.Stderr, "wasabi-bench: -sessions: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *jsonOut != "" || *fig9Out != "" {
		if err := writeBenchJSON(*jsonOut, *fig9Out); err != nil {
			fmt.Fprintf(os.Stderr, "wasabi-bench: -json/-fig9: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.DefaultConfig()
	if *full {
		cfg = experiments.PaperScale()
	}
	if *polyN > 0 {
		cfg.PolyN = int32(*polyN)
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}

	run := func(name string, f func() error) {
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "wasabi-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s finished in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	w := os.Stdout
	all := *exp == "all"
	if all || *exp == "table4" {
		run("table4", func() error { return experiments.Table4(w) })
	}
	if all || *exp == "rq2" {
		run("rq2", func() error { return experiments.RQ2(w, cfg) })
	}
	if all || *exp == "table5" {
		run("table5", func() error { return experiments.Table5(w, cfg) })
	}
	if all || *exp == "fig8" {
		run("fig8", func() error { return experiments.Fig8(w, cfg) })
	}
	if all || *exp == "mono" {
		run("mono", func() error { return experiments.Mono(w, cfg) })
	}
	if all || *exp == "fig9" {
		run("fig9", func() error { return experiments.Fig9(w, cfg, nil) })
	}
}
