// Command wasabi-bench regenerates the tables and figures of the paper's
// evaluation section: Table 4, the RQ2 faithfulness check, Table 5,
// Figure 8, the §4.5 monomorphization counts and Figure 9. Each experiment
// prints the rows or series the paper reports. Its timings are best-of-N
// single runs, for reading against the paper; they are not tracked. The
// numbers the repository tracks come from perfbench (README, "Benchmarks").
//
// Usage:
//
//	wasabi-bench [-experiment table4|rq2|table5|fig8|mono|fig9|all] [-full] [-n N] [-reps N]
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
	flag.Parse()

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

	w := os.Stdout
	ran := false
	for _, e := range []struct {
		name string
		run  func() error
	}{
		{"table4", func() error { return experiments.Table4(w) }},
		{"rq2", func() error { return experiments.RQ2(w, cfg) }},
		{"table5", func() error { return experiments.Table5(w, cfg) }},
		{"fig8", func() error { return experiments.Fig8(w, cfg) }},
		{"mono", func() error { return experiments.Mono(w, cfg) }},
		{"fig9", func() error { return experiments.Fig9(w, cfg, nil) }},
	} {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		start := time.Now()
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "wasabi-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s finished in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "wasabi-bench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
