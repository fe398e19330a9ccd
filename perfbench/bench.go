package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupRepeats is how many times a run builds its set-up; setup_s is the
// median, so one slow set-up (a GC, a cold page cache) does not move it.
const setupRepeats = 5

// maxFailures bounds the failure messages kept for the record.
const maxFailures = 20

// bench is the state of one benchmark run.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	dir      string // records and spans
	scratch  string // segment files; removed when the run ends
	tr       *tracer
	env      map[string]any

	nextOp atomic.Int64

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
	rounds    map[string][]float64 // per-round figures of the untraced phase
	params    map[string]any
	rows      []string
}

func newBench(workload string, seed uint64, seconds float64, traced bool, dir string) (*bench, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(dir, "scratch-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		traced:   traced,
		dir:      dir,
		scratch:  scratch,
		metrics:  map[string]float64{},
		params:   map[string]any{},
	}
	b.env = map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit(),
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
	}
	return b, nil
}

// commit names the source the benchmark was built from: the VCS revision
// when the build recorded one, otherwise a digest of the Go sources and
// module files under the working directory (a checkout without .git).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// op returns a fresh op id; every span of one op carries it.
func (b *bench) op() int64 { return b.nextOp.Add(1) }

// record counts one attempted op and, when err is non-nil, its failure.
func (b *bench) record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < maxFailures {
			b.failures = append(b.failures, err.Error())
		}
	}
}

func (b *bench) set(name string, v float64) {
	b.mu.Lock()
	b.metrics[name] = v
	b.mu.Unlock()
}

func (b *bench) param(name string, v any) {
	b.mu.Lock()
	b.params[name] = v
	b.mu.Unlock()
}

func (b *bench) row(format string, args ...any) {
	b.mu.Lock()
	b.rows = append(b.rows, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// phases runs the timed phase for --seconds, or in a traced run twice for
// half as long: untraced, then with spans on. round runs one round of the
// workload (its own timed window plus one slice of each companion) and
// adds its figures; rounds repeat until the phase's time is up. The
// traced run reports the slowdown tracing caused to the workload's own
// throughput (ops per second of its timed windows) as trace.overhead_frac.
func (b *bench) phases(round func(i int, fig figures) (ops int, busy time.Duration)) {
	d := time.Duration(b.seconds * float64(time.Second))
	if b.traced {
		d /= 2
	}
	phase := func() (figures, float64) {
		fig := figures{}
		var ops int
		var busy time.Duration
		start := time.Now()
		for i := 0; i == 0 || time.Since(start) < d; i++ {
			n, t := round(i, fig)
			ops += n
			busy += t
		}
		return fig, float64(ops) / busy.Seconds()
	}
	fig, plain := phase()
	fig.report(b)
	if !b.traced {
		return
	}
	b.tr = newTracer()
	_, traced := phase()
	b.set("trace.overhead_frac", plain/traced-1)
}

// figures collect one value per round for a metric that does not depend on
// the CPU's speed, such as bytes allocated per op; each reports the median
// of its rounds.
type figures map[string][]float64

func (f figures) amount(name string, v float64) { f[name] = append(f[name], v) }

func (f figures) report(b *bench) {
	b.rounds = map[string][]float64{}
	for name, xs := range f {
		b.set(name, median(xs))
		b.rounds[name] = xs
	}
}

// fastest returns the best of an item's repeated times. An item (an input
// of the instrument paths, a program of the delivery modes) recurs once per
// round, a dozen or more times in a run. On a shared 2-core VM the host
// slows the program down by up to 1.7x for seconds to minutes at a time,
// and how much of a run is slow differs from run to run; a slowdown only
// ever adds time, and nearly every run has a few fast seconds, so the best
// repeat moves far less from run to run than any middle quantile.
func fastest(times []float64) float64 { return slices.Min(times) }

// setup runs build setupRepeats times, records the median wall time as
// setup_s, and keeps the last result; the others are closed.
func setup[T any](b *bench, build func() (T, error), closeFn func(T)) (T, error) {
	var times []float64
	var last T
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			closeFn(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	b.set("setup_s", median(times))
	return last, nil
}

var (
	allocMu    sync.Mutex
	allocStats runtime.MemStats
)

// heapAllocs returns the process's cumulative heap allocation in bytes and
// objects. ReadMemStats flushes every P's cached spans first, so the counts
// are exact, where runtime/metrics would lag by up to a span per size
// class; it neither collects nor allocates.
func heapAllocs() (bytes, objects uint64) {
	allocMu.Lock()
	defer allocMu.Unlock()
	runtime.ReadMemStats(&allocStats)
	return allocStats.TotalAlloc, allocStats.Mallocs
}

// retainedMB forces a collection and returns the live heap in MB. The
// second collection frees what sync.Pools kept through the first.
func retainedMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// rng is a splitmix64 generator: every seeded choice of the benchmark comes
// from it, so the same seed gives the same inputs on every platform.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range stream {
		r.s = r.s*0x100000001B3 ^ uint64(c)
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
