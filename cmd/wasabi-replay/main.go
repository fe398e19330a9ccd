// Command wasabi-replay runs a dynamic analysis over a recorded event-log
// segment file instead of a live execution. wasabi-run -record (or any
// embedder feeding a Stream/Fanout into sink.Create) writes the segments;
// replay decodes them through the same EventTable surface live subscribers
// use, so a stream analysis cannot tell a replayed batch from a live one.
//
// Usage:
//
//	wasabi-replay [-analysis stats|trace|instruction-mix] [-batch N] file.evlog
//	wasabi-replay -analysis trace -max 40 trace.evlog     (first 40 trace lines)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/sink"
)

func main() {
	analysisName := flag.String("analysis", "stats", "replay analysis: stats | trace | instruction-mix")
	batch := flag.Int("batch", 0, "records per replay batch (0 = the format default; groups never split)")
	maxLines := flag.Int("max", 0, "bound the trace to N lines (trace only; 0 = unbounded)")
	flag.Parse()

	if flag.NArg() != 1 {
		fatal("need one segment file (wasabi-run -record out.evlog writes them)")
	}
	path := flag.Arg(0)
	r, err := sink.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer r.Close()

	switch *analysisName {
	case "stats":
		stats(path, r)
	case "trace":
		tr := analyses.NewStreamTracer()
		tr.MaxEvents = *maxLines
		tr.SetEventTable(r.Table())
		r.Serve(tr, *batch)
		tr.Report(os.Stdout)
	case "instruction-mix":
		// The callback analysis, fed by the record decoder.
		mix := analyses.NewInstructionMix()
		r.Serve(analysis.NewDecoder(r.Table(), mix), *batch)
		mix.Report(os.Stdout)
		fmt.Printf("%12d  (total)\n", mix.Total())
	default:
		fatal("unknown -analysis %q (have: stats, trace, instruction-mix)", *analysisName)
	}
}

// stats summarizes the segment without interpreting payloads: what a quick
// look at an opaque recording should answer (how much, of what kinds).
func stats(path string, r *sink.Reader) {
	recs := r.Records()
	perKind := map[string]uint64{}
	var conts, synth uint64
	for i := range recs {
		switch recs[i].Hook {
		case analysis.EventCont:
			conts++
		case analysis.EventSynth:
			synth++
			perKind[recs[i].Kind.String()]++
		default:
			perKind[recs[i].Kind.String()]++
		}
	}
	fmt.Printf("%s: %d records (%d primaries, %d continuations, %d synthesized), %d hook specs\n",
		path, len(recs), uint64(len(recs))-conts, conts, synth, len(r.Table().Specs))
	names := make([]string, 0, len(perKind))
	for k := range perKind {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if perKind[names[i]] != perKind[names[j]] {
			return perKind[names[i]] > perKind[names[j]]
		}
		return names[i] < names[j]
	})
	for _, k := range names {
		fmt.Printf("%12d  %s\n", perKind[k], k)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wasabi-replay: "+format+"\n", args...)
	os.Exit(1)
}
