package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced call into a layer. The benchmark records spans around
// its own calls; nothing inside the program is instrumented.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`     // shared by every span of one op
	Parent int32  `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Heap allocation inside the span, for spans begun with beginAlloc.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Allocs     uint64 `json:"allocs,omitempty"`

	alloc        bool
	bytes0, obj0 uint64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call the same methods.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, op int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// beginAlloc is begin for a span that also records its heap allocation.
// Only meaningful while no other goroutine allocates (the instrument
// workload's single client).
func (t *tracer) beginAlloc(name string, op int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	id := t.begin(name, op, parent)
	b, o := heapAllocs()
	t.mu.Lock()
	s := &t.spans[id]
	s.alloc, s.bytes0, s.obj0 = true, b, o
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	alloc := t.spans[id].alloc
	t.mu.Unlock()
	var b, o uint64
	if alloc {
		b, o = heapAllocs()
	}
	t.mu.Lock()
	s := &t.spans[id]
	s.End = now
	if alloc {
		s.AllocBytes, s.Allocs = b-s.bytes0, o-s.obj0
	}
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span, its duration minus the part of that
// interval its child spans cover. Children may overlap each other (spans of
// concurrent subscribers share a parent); overlapping time counts once.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, children[i], spans)
	}
	return self
}

// covered returns how much of p's interval the union of kids covers.
func covered(p span, kids []int32, spans []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanStats are the per-op figures derived from the spans of one name.
type spanStats struct {
	selfMS  float64 // mean over ops of the summed self time, ms
	allocMB float64 // mean over ops of the summed allocation, MB
	allocs  float64 // mean over ops of the summed allocated objects
}

// layerStats groups spans by name and averages their self time and
// allocation over the ops that ran them. Spans outside any op (op < 0: the
// warm-up and the checks after the timed phase) are left out.
func layerStats(spans []span) map[string]spanStats {
	self := selfTimes(spans)
	type acc struct {
		self, bytes, objs float64
		ops               map[int64]bool
	}
	accs := map[string]*acc{}
	for i, s := range spans {
		if s.Op < 0 {
			continue
		}
		a := accs[s.Name]
		if a == nil {
			a = &acc{ops: map[int64]bool{}}
			accs[s.Name] = a
		}
		a.ops[s.Op] = true
		a.self += float64(self[i])
		a.bytes += float64(s.AllocBytes)
		a.objs += float64(s.Allocs)
	}
	out := make(map[string]spanStats, len(accs))
	for name, a := range accs {
		n := float64(len(a.ops))
		out[name] = spanStats{selfMS: a.self / n / 1e6, allocMB: a.bytes / n / 1e6, allocs: a.objs / n}
	}
	return out
}

// spanMetricSuffixes maps a per-layer metric suffix to the span statistic
// it reports: "<span name>.<suffix>". Wait and busy spans have no children,
// so their self time is their duration.
var spanMetricSuffixes = map[string]func(spanStats) float64{
	"self_ms":  func(s spanStats) float64 { return s.selfMS },
	"wait_ms":  func(s spanStats) float64 { return s.selfMS },
	"busy_ms":  func(s spanStats) float64 { return s.selfMS },
	"alloc_mb": func(s spanStats) float64 { return s.allocMB },
	"allocs":   func(s spanStats) float64 { return s.allocs },
}

// setSpanMetrics sets every per-layer metric of the form
// "<span name>.<suffix>" whose span the traced phase recorded.
func (b *bench) setSpanMetrics(names []string) {
	stats := layerStats(b.tr.snapshot())
	for _, name := range names {
		i := strings.LastIndexByte(name, '.')
		if i < 0 {
			continue
		}
		f, ok := spanMetricSuffixes[name[i+1:]]
		if !ok {
			continue
		}
		if st, ok := stats[name[:i]]; ok {
			b.set(name, f(st))
		}
	}
}
